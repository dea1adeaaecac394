// Package alloc builds node allocations for simulated jobs. The paper shows
// (§3.1, Figure 3) that the process-to-node allocation dominates both the
// median and the variance of communication performance, so experiments must
// fix the allocation; this package provides the allocation policies used by
// the experiments (contiguous, random scatter, group-striped) and helpers to
// construct node pairs of a specific topological distance class.
package alloc

import (
	"fmt"
	"math/rand"

	"dragonfly/internal/topo"
)

// Policy selects how nodes are assigned to a job.
type Policy uint8

const (
	// Contiguous allocates the first free nodes in node-id order, filling
	// blades, chassis and groups one after the other (the "localized"
	// allocation of the related-work discussion).
	Contiguous Policy = iota
	// RandomScatter allocates nodes uniformly at random over the whole
	// machine, the typical outcome on a busy production system.
	RandomScatter
	// GroupStriped distributes nodes round-robin over the groups, giving each
	// group a roughly equal share of the job.
	GroupStriped
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Contiguous:
		return "contiguous"
	case RandomScatter:
		return "random"
	case GroupStriped:
		return "group-striped"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy converts a policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "contiguous":
		return Contiguous, nil
	case "random":
		return RandomScatter, nil
	case "group-striped", "striped":
		return GroupStriped, nil
	default:
		return Contiguous, fmt.Errorf("alloc: unknown policy %q", s)
	}
}

// Allocation is a set of nodes assigned to one job.
type Allocation struct {
	topo  *topo.Topology
	nodes []topo.NodeID
}

// NewAllocation wraps an explicit node list.
func NewAllocation(t *topo.Topology, nodes []topo.NodeID) *Allocation {
	cp := append([]topo.NodeID(nil), nodes...)
	return &Allocation{topo: t, nodes: cp}
}

// Nodes returns the allocated nodes in rank order. The caller must not modify
// the returned slice.
func (a *Allocation) Nodes() []topo.NodeID { return a.nodes }

// Size returns the number of allocated nodes.
func (a *Allocation) Size() int { return len(a.nodes) }

// Node returns the node assigned to the given rank.
func (a *Allocation) Node(rank int) topo.NodeID { return a.nodes[rank] }

// Routers returns the set of routers (blades) touched by the allocation.
func (a *Allocation) Routers() map[topo.RouterID]bool {
	out := make(map[topo.RouterID]bool)
	for _, n := range a.nodes {
		out[a.topo.RouterOfNode(n)] = true
	}
	return out
}

// Groups returns the set of groups touched by the allocation.
func (a *Allocation) Groups() map[topo.GroupID]bool {
	out := make(map[topo.GroupID]bool)
	for _, n := range a.nodes {
		out[a.topo.GroupOfNode(n)] = true
	}
	return out
}

// NumRouters returns the number of distinct routers used by the allocation
// (the paper reports e.g. "257 Aries routers spanning over 6 groups").
func (a *Allocation) NumRouters() int { return len(a.Routers()) }

// NumGroups returns the number of distinct groups used by the allocation.
func (a *Allocation) NumGroups() int { return len(a.Groups()) }

// Contains reports whether the allocation includes the node.
func (a *Allocation) Contains(n topo.NodeID) bool {
	for _, x := range a.nodes {
		if x == n {
			return true
		}
	}
	return false
}

// String summarizes the allocation.
func (a *Allocation) String() string {
	return fmt.Sprintf("%d nodes over %d routers in %d groups",
		a.Size(), a.NumRouters(), a.NumGroups())
}

// Allocate builds an allocation of n nodes using the given policy. Nodes in
// exclude are skipped (they belong to other jobs). rng is required by
// RandomScatter and ignored otherwise.
func Allocate(t *topo.Topology, policy Policy, n int, rng *rand.Rand, exclude map[topo.NodeID]bool) (*Allocation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: job size must be positive, got %d", n)
	}
	total := t.NumNodes()
	free := make([]topo.NodeID, 0, total)
	for i := 0; i < total; i++ {
		id := topo.NodeID(i)
		if exclude != nil && exclude[id] {
			continue
		}
		free = append(free, id)
	}
	if len(free) < n {
		return nil, fmt.Errorf("alloc: requested %d nodes but only %d are free", n, len(free))
	}

	var chosen []topo.NodeID
	switch policy {
	case Contiguous:
		chosen = append(chosen, free[:n]...)
	case RandomScatter:
		if rng == nil {
			return nil, fmt.Errorf("alloc: RandomScatter requires a random source")
		}
		perm := rng.Perm(len(free))
		chosen = make([]topo.NodeID, n)
		for i := 0; i < n; i++ {
			chosen[i] = free[perm[i]]
		}
	case GroupStriped:
		byGroup := make(map[topo.GroupID][]topo.NodeID)
		var groups []topo.GroupID
		for _, id := range free {
			g := t.GroupOfNode(id)
			if _, ok := byGroup[g]; !ok {
				groups = append(groups, g)
			}
			byGroup[g] = append(byGroup[g], id)
		}
		chosen = make([]topo.NodeID, 0, n)
		for i := 0; len(chosen) < n; i++ {
			progressed := false
			for _, g := range groups {
				if len(chosen) >= n {
					break
				}
				if i < len(byGroup[g]) {
					chosen = append(chosen, byGroup[g][i])
					progressed = true
				}
			}
			if !progressed {
				return nil, fmt.Errorf("alloc: ran out of nodes while striping")
			}
		}
	default:
		return nil, fmt.Errorf("alloc: unknown policy %d", policy)
	}
	return NewAllocation(t, chosen), nil
}

// MustAllocate is like Allocate but panics on error. Intended for examples and
// tests with known-good parameters.
func MustAllocate(t *topo.Topology, policy Policy, n int, rng *rand.Rand, exclude map[topo.NodeID]bool) *Allocation {
	a, err := Allocate(t, policy, n, rng, exclude)
	if err != nil {
		panic(err)
	}
	return a
}

// PairForClass returns two distinct nodes whose topological distance matches
// the requested allocation class (used by the Figure 3/5/7 experiments). It
// returns an error when the topology cannot provide such a pair (for example
// AllocInterGroups on a single-group system).
func PairForClass(t *topo.Topology, class topo.AllocationClass) (a, b topo.NodeID, err error) {
	cfg := t.Config()
	first := topo.NodeID(0)
	switch class {
	case topo.AllocSameNode:
		return first, first, nil
	case topo.AllocInterNodes:
		if cfg.NodesPerBlade < 2 {
			return 0, 0, fmt.Errorf("alloc: topology has fewer than 2 nodes per blade")
		}
		return first, first + 1, nil
	case topo.AllocInterBlades:
		if cfg.BladesPerChassis < 2 {
			return 0, 0, fmt.Errorf("alloc: topology has fewer than 2 blades per chassis")
		}
		other := t.NodesOfRouter(t.RouterAt(topo.Coord{Group: 0, Chassis: 0, Blade: 1}))[0]
		return first, other, nil
	case topo.AllocInterChassis:
		if cfg.ChassisPerGroup < 2 {
			return 0, 0, fmt.Errorf("alloc: topology has fewer than 2 chassis per group")
		}
		other := t.NodesOfRouter(t.RouterAt(topo.Coord{Group: 0, Chassis: 1, Blade: 0}))[0]
		return first, other, nil
	case topo.AllocInterGroups:
		if cfg.Groups < 2 {
			return 0, 0, fmt.Errorf("alloc: topology has fewer than 2 groups")
		}
		other := t.NodesOfRouter(t.RouterAt(topo.Coord{Group: 1, Chassis: 0, Blade: 0}))[0]
		return first, other, nil
	default:
		return 0, 0, fmt.Errorf("alloc: unknown allocation class %v", class)
	}
}
