package routing

import (
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/topo"
)

// MaxDecisionCandidates bounds how many candidate paths one traced decision
// can hold. Aries UGAL samples 2 minimal + 2 non-minimal candidates, so 8
// leaves headroom for swept configurations without growing the record.
const MaxDecisionCandidates = 8

// DefaultDecisionCandidates is the top-k used when tracing is enabled without
// an explicit k ("on"): every candidate of the default 2+2 configuration.
const DefaultDecisionCandidates = 4

// DefaultTraceCapacity is the per-group ring capacity used by the facade.
// Rings overwrite oldest-first, so the trace keeps the most recent decisions
// of every group and total memory stays bounded regardless of run length.
const DefaultTraceCapacity = 2048

// ParseDecisionTrace converts a -decision-trace flag value to the traced
// candidate count k. "", "off" and "0" disable tracing; "on" selects
// DefaultDecisionCandidates; otherwise the value is a non-negative integer,
// optionally written as "k=N", bounded by MaxDecisionCandidates. Matching is
// case-insensitive and ignores surrounding whitespace.
func ParseDecisionTrace(s string) (int, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	switch t {
	case "", "off", "0":
		return 0, nil
	case "on":
		return DefaultDecisionCandidates, nil
	}
	if rest, ok := strings.CutPrefix(t, "k="); ok {
		t = strings.TrimSpace(rest)
	}
	k, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("routing: invalid decision trace %q (want off, on, or k=N)", s)
	}
	if k < 0 {
		return 0, fmt.Errorf("routing: decision trace k must be >= 0, got %d", k)
	}
	if k > MaxDecisionCandidates {
		return 0, fmt.Errorf("routing: decision trace k %d exceeds the maximum %d", k, MaxDecisionCandidates)
	}
	return k, nil
}

// TracedCandidate is one candidate path as the router saw it at decision
// time: the source route and its raw congestion cost (queue + propagation +
// serialization, before any non-minimal bias). The record is pointer-free and
// fixed-size so rings can be preallocated and recording never allocates.
type TracedCandidate struct {
	// Links holds the candidate's source route; only the first PathLen entries
	// are meaningful.
	Links [topo.MaxNonMinimalHops]topo.LinkID
	// PathLen is the hop count of the candidate.
	PathLen int8
	// Minimal reports whether the candidate is a minimal path.
	Minimal bool
	// RawCost is the unbiased congestion cost in cycles at decision time.
	RawCost int64
}

// Path returns the candidate's source route as a slice over Links. The result
// aliases the record.
func (c *TracedCandidate) Path() topo.Path { return topo.Path(c.Links[:c.PathLen]) }

// TracedDecision is one adaptive routing decision with its top-k candidates.
type TracedDecision struct {
	// Seq is the decision's per-group sequence number (0-based, monotonic over
	// the life of the trace, unaffected by ring wraparound).
	Seq uint64
	// Now is the simulation time of the decision in cycles.
	Now int64
	// Mode is the adaptive routing mode that made the decision.
	Mode Mode
	// Src and Dst are the source and destination routers.
	Src, Dst topo.RouterID
	// Flits is the packet size the candidates were costed with.
	Flits int32
	// Bias is the non-minimal bias the mode applied, in cycles.
	Bias int64
	// BestMinHops is the hop count of the shortest minimal candidate (the
	// input to the Increasingly-Minimal-Bias formula).
	BestMinHops int8
	// NumCandidates is how many entries of Candidates are meaningful.
	NumCandidates int8
	// Chosen indexes the selected candidate within Candidates.
	Chosen int8
	// Candidates holds the top-k candidates in sampling order (minimal first).
	// When the selected candidate falls outside the first k, it replaces the
	// last kept slot so the chosen path is always present.
	Candidates [MaxDecisionCandidates]TracedCandidate
}

// decisionRing is one group's fixed-capacity decision buffer; it overwrites
// oldest-first once full.
type decisionRing struct {
	buf   []TracedDecision
	next  int
	total uint64
}

// DecisionTrace records adaptive routing decisions into one ring per
// dragonfly group, keyed by the source router's group. Each group's ring
// keeps that group's most recent decisions, so a busy group cannot evict a
// quiet group's history. The trace belongs to one simulation goroutine, so
// recording needs no synchronization.
type DecisionTrace struct {
	k      int
	groups []decisionRing
}

// NewDecisionTrace builds a trace with one ring of the given capacity per
// group, keeping the top k candidates of each decision.
func NewDecisionTrace(groups, k, capacity int) (*DecisionTrace, error) {
	if groups < 1 {
		return nil, fmt.Errorf("routing: NewDecisionTrace needs at least one group, got %d", groups)
	}
	if k < 1 || k > MaxDecisionCandidates {
		return nil, fmt.Errorf("routing: decision trace k must be in [1, %d], got %d", MaxDecisionCandidates, k)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("routing: decision trace capacity must be >= 1, got %d", capacity)
	}
	t := &DecisionTrace{k: k, groups: make([]decisionRing, groups)}
	for g := range t.groups {
		t.groups[g].buf = make([]TracedDecision, 0, capacity)
	}
	return t, nil
}

// Len returns the number of decisions currently stored across all rings.
func (t *DecisionTrace) Len() int {
	n := 0
	for g := range t.groups {
		n += len(t.groups[g].buf)
	}
	return n
}

// Recorded returns the total number of decisions ever recorded, including
// those overwritten by ring wraparound.
func (t *DecisionTrace) Recorded() uint64 {
	var n uint64
	for g := range t.groups {
		n += t.groups[g].total
	}
	return n
}

// Dropped returns the number of decisions lost to ring wraparound.
func (t *DecisionTrace) Dropped() uint64 { return t.Recorded() - uint64(t.Len()) }

// Reset clears every ring; capacity is retained.
func (t *DecisionTrace) Reset() {
	for g := range t.groups {
		r := &t.groups[g]
		r.buf = r.buf[:0]
		r.next = 0
		r.total = 0
	}
}

// ForEach visits every stored decision: groups in ascending order, and within
// each group oldest to newest. The *TracedDecision points into the ring and
// must be copied if retained.
func (t *DecisionTrace) ForEach(fn func(group int, d *TracedDecision)) {
	for g := range t.groups {
		r := &t.groups[g]
		if len(r.buf) == cap(r.buf) {
			// Full ring: oldest entry sits at the overwrite cursor.
			for i := 0; i < len(r.buf); i++ {
				fn(g, &r.buf[(r.next+i)%len(r.buf)])
			}
		} else {
			for i := range r.buf {
				fn(g, &r.buf[i])
			}
		}
	}
}

// Add appends a prebuilt decision to a group's ring, assigning its sequence
// number. It exists for tests and offline tooling; live recording goes
// through Policy.Route.
func (t *DecisionTrace) Add(group int, d TracedDecision) {
	slot := t.groups[group].slot()
	seq := slot.Seq
	*slot = d
	slot.Seq = seq
}

// slot returns the next ring entry to fill, advancing the cursor and stamping
// the entry's sequence number.
func (r *decisionRing) slot() *TracedDecision {
	var d *TracedDecision
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:len(r.buf)+1]
		d = &r.buf[len(r.buf)-1]
	} else {
		d = &r.buf[r.next]
	}
	r.next = (r.next + 1) % cap(r.buf)
	d.Seq = r.total
	r.total++
	return d
}

// record captures one adaptive decision. Costs are recomputed from the view
// (pure reads — no RNG draws), so recording cannot perturb the simulated
// byte stream; with tracing disabled the only hot-path overhead is one nil
// check in Route.
func (t *DecisionTrace) record(group int, mode Mode, src, dst topo.RouterID,
	flits int, now int64, view CongestionView, hop *[topo.NumLinkTypes]int64,
	cands []topo.Candidate, nMin, bestMinHops int, bias int64, chosen int) {

	total := len(cands)
	if total == 0 || chosen < 0 || chosen >= total {
		return
	}
	kept := t.k
	if total < kept {
		kept = total
	}
	seq := t.groups[group].total
	d := t.groups[group].slot()
	*d = TracedDecision{
		Seq:           seq,
		Now:           now,
		Mode:          mode,
		Src:           src,
		Dst:           dst,
		Flits:         int32(flits),
		Bias:          bias,
		BestMinHops:   int8(bestMinHops),
		NumCandidates: int8(kept),
	}
	for s := 0; s < kept; s++ {
		i := s
		if chosen >= kept && s == kept-1 {
			// The selected candidate fell outside the top k: keep it anyway in
			// the last slot so counterfactual scoring always sees the choice.
			i = chosen
		}
		c := &d.Candidates[s]
		n := copy(c.Links[:], cands[i].Path())
		c.PathLen = int8(n)
		c.Minimal = i < nMin
		c.RawCost = fullCost(&cands[i], hop, view, now)
		if i == chosen {
			d.Chosen = int8(s)
		}
	}
}
