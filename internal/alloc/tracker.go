package alloc

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dragonfly/internal/topo"
)

// Tracker is the incremental free-node allocator the batch scheduler places
// jobs through. Allocate (above) rebuilds the whole free list on every call,
// O(machine) work and a fresh slice per job; a Tracker keeps the machine
// state resident instead, so jobs start and finish as the scheduler's events
// fire:
//
//   - a busy bitset (one word per 64 nodes; 84 words on Daint) answers
//     membership and drives the contiguous scan,
//   - a swap-remove free list with a position index gives O(1) uniform
//     free-node draws for random scatter (no O(free) Perm),
//   - node IDs are group-contiguous by construction, so group striping walks
//     per-group ID ranges directly.
//
// Alloc and free are O(job size) plus a word-scan, and callers pass the
// destination slice in. The order of the swap-remove free list decides which
// nodes a RandomScatter draw picks, so the scheduler's random placements
// depend on it.
//
// A Tracker is not safe for concurrent use; like the scheduler it backs, all
// calls must come from the simulation goroutine.
type Tracker struct {
	total         int
	nodesPerGroup int
	groups        int

	words []uint64 // busy bitset, bit n%64 of word n/64
	free  int

	// freeList holds every free node exactly once, in arbitrary order;
	// pos[n] is node n's index in it, -1 while busy. Swap-remove keeps
	// both O(1) per transition.
	freeList []topo.NodeID
	pos      []int32
}

// NewTracker builds a tracker over the machine with every node free.
func NewTracker(t *topo.Topology) *Tracker {
	total := t.NumNodes()
	cfg := t.Config()
	k := &Tracker{
		total:         total,
		nodesPerGroup: cfg.RoutersPerGroup() * cfg.NodesPerBlade,
		groups:        cfg.Groups,
		words:         make([]uint64, (total+63)/64),
		free:          total,
		freeList:      make([]topo.NodeID, total),
		pos:           make([]int32, total),
	}
	for i := 0; i < total; i++ {
		k.freeList[i] = topo.NodeID(i)
		k.pos[i] = int32(i)
	}
	return k
}

// FreeNodes returns the number of currently free nodes.
func (k *Tracker) FreeNodes() int { return k.free }

// Busy reports whether node n is currently allocated.
func (k *Tracker) Busy(n topo.NodeID) bool {
	return k.words[uint(n)/64]&(1<<(uint(n)%64)) != 0
}

// markBusy transitions one free node to busy.
func (k *Tracker) markBusy(n topo.NodeID) {
	k.words[uint(n)/64] |= 1 << (uint(n) % 64)
	// Swap-remove from the free list.
	i := k.pos[n]
	last := k.freeList[k.free-1]
	k.freeList[i] = last
	k.pos[last] = i
	k.pos[n] = -1
	k.free--
}

// markFree transitions one busy node back to free.
func (k *Tracker) markFree(n topo.NodeID) {
	k.words[uint(n)/64] &^= 1 << (uint(n) % 64)
	k.freeList[k.free] = n
	k.pos[n] = int32(k.free)
	k.free++
}

// Reserve marks the given nodes busy without tying them to an allocation
// (e.g. nodes held by a measured foreground job). Already-busy nodes are
// ignored. Reserved nodes come back only through Free.
func (k *Tracker) Reserve(nodes []topo.NodeID) {
	for _, n := range nodes {
		if !k.Busy(n) {
			k.markBusy(n)
		}
	}
}

// Allocate chooses n free nodes under the given policy, marks them busy and
// appends them to out (pass a recycled slice with out[:0] for an
// allocation-free steady state). rng is required by RandomScatter. The chosen
// node order matches Allocate's: ascending for Contiguous, draw order for
// RandomScatter, round-robin passes for GroupStriped.
func (k *Tracker) Allocate(policy Policy, n int, rng *rand.Rand, out []topo.NodeID) ([]topo.NodeID, error) {
	if n <= 0 {
		return out, fmt.Errorf("alloc: job size must be positive, got %d", n)
	}
	if n > k.free {
		return out, fmt.Errorf("alloc: requested %d nodes but only %d are free", n, k.free)
	}
	base := len(out)
	switch policy {
	case Contiguous:
		// First n free nodes in ID order: scan busy words for zero bits.
		remaining := n
		for w := 0; remaining > 0; w++ {
			word := ^k.words[w]
			if hi := (w + 1) * 64; hi > k.total {
				word &= (1 << (uint(k.total) % 64)) - 1
			}
			for word != 0 && remaining > 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				out = append(out, topo.NodeID(w*64+b))
				remaining--
			}
		}
	case RandomScatter:
		if rng == nil {
			return out, fmt.Errorf("alloc: RandomScatter requires a random source")
		}
		for i := 0; i < n; i++ {
			out = append(out, k.freeList[rng.Intn(k.free)])
			// Mark immediately so the next draw excludes it; the remaining
			// free prefix stays uniform (swap-remove is order-agnostic).
			k.markBusy(out[len(out)-1])
		}
		return out, nil
	case GroupStriped:
		// Round-robin over groups, taking each group's lowest free node per
		// pass (the incremental equivalent of striping over per-group free
		// lists).
		remaining := n
		for remaining > 0 {
			progressed := false
			for g := 0; g < k.groups && remaining > 0; g++ {
				node, ok := k.lowestFreeInRange(g*k.nodesPerGroup, min((g+1)*k.nodesPerGroup, k.total))
				if !ok {
					continue
				}
				out = append(out, node)
				k.markBusy(node)
				remaining--
				progressed = true
			}
			if !progressed {
				// Cannot happen while free >= remaining, but guard like
				// Allocate does.
				k.Free(out[base:])
				return out[:base], fmt.Errorf("alloc: ran out of nodes while striping")
			}
		}
		return out, nil
	default:
		return out, fmt.Errorf("alloc: unknown policy %d", policy)
	}
	for _, node := range out[base:] {
		k.markBusy(node)
	}
	return out, nil
}

// lowestFreeInRange returns the lowest free node ID in [lo, hi), if any.
func (k *Tracker) lowestFreeInRange(lo, hi int) (topo.NodeID, bool) {
	for w := lo / 64; w*64 < hi; w++ {
		word := ^k.words[w]
		if first := w * 64; first < lo {
			word &^= (1 << (uint(lo) % 64)) - 1
		}
		if last := (w + 1) * 64; last > hi {
			word &= (1 << (uint(hi) % 64)) - 1
		}
		if word != 0 {
			return topo.NodeID(w*64 + bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// Free returns the given nodes to the free pool. Freeing an already-free node
// panics: that is a double-free in the scheduler above, and silently ignoring
// it would corrupt the utilization accounting.
func (k *Tracker) Free(nodes []topo.NodeID) {
	for _, n := range nodes {
		if !k.Busy(n) {
			panic(fmt.Sprintf("alloc: double free of node %d", n))
		}
		k.markFree(n)
	}
}
