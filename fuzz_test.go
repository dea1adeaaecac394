package dragonfly_test

import (
	"strings"
	"testing"

	"dragonfly"
)

// FuzzParseRouting fuzzes the routing-configuration parser: it must never
// panic, and every accepted input must yield a usable configuration (a name
// and a provider factory that builds per-rank providers).
func FuzzParseRouting(f *testing.F) {
	for _, seed := range []string{
		"default", "appaware", "ADAPTIVE_0", "ADAPTIVE_1", "ADAPTIVE_2", "ADAPTIVE_3",
		"MIN_HASH", "NMIN_HASH", "IN_ORDER", "adaptive", "high-bias", "low-bias", "imb",
		"", "bogus", "ADAPTIVE_9", "Default", "APPAWARE", "adaptive_0", " default",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := dragonfly.ParseRouting(s)
		if err != nil {
			if r.Provider != nil || r.Name != "" {
				t.Fatalf("ParseRouting(%q) errored but returned a non-zero Routing %+v", s, r)
			}
			return
		}
		if r.Name == "" {
			t.Fatalf("ParseRouting(%q) accepted with an empty name", s)
		}
		if r.Provider == nil {
			t.Fatalf("ParseRouting(%q) accepted with a nil provider factory", s)
		}
		if p := r.Provider(0); p == nil {
			t.Fatalf("ParseRouting(%q): provider factory built a nil provider", s)
		}
	})
}

// FuzzParseShards fuzzes the shard-count parser: no panics, every accepted
// input maps to a valid WithShards argument (0 = auto or a positive count),
// and acceptance is stable under the documented normalization.
func FuzzParseShards(f *testing.F) {
	for _, seed := range []string{
		"", "auto", "AUTO", " auto ", "1", "2", "4", "8", "16", "64",
		"0", "-1", "-8", "four", "4.5", "1e3", "0x4", "+3", " 2 ",
		"auto:2", "99999999999999999999", "∞",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := dragonfly.ParseShards(s)
		if err != nil {
			if n != 0 {
				t.Fatalf("ParseShards(%q) errored but returned %d", s, n)
			}
			return
		}
		if n < 0 {
			t.Fatalf("ParseShards(%q) accepted a negative count %d", s, n)
		}
		if opt := dragonfly.WithShards(n); opt == nil {
			t.Fatalf("ParseShards(%q) = %d does not build a WithShards option", s, n)
		}
		if n2, err := dragonfly.ParseShards(strings.ToUpper(" " + s + " ")); err != nil || n2 != n {
			t.Fatalf("ParseShards(%q) is not normalization-stable: %v / %d", s, err, n2)
		}
	})
}

// FuzzParseDecisionTrace fuzzes the decision-trace flag parser: no panics,
// errors return the zero value, every accepted k is in [0, 8], every accepted
// k >= 1 is a usable WithDecisionTrace argument, and acceptance is stable
// under the documented normalization (case, surrounding whitespace).
func FuzzParseDecisionTrace(f *testing.F) {
	for _, seed := range []string{
		"", "off", "OFF", "on", "On", "0", "1", "4", "8", "k=4", "K=2",
		" k=8 ", "k=0", "9", "-1", "k=", "k=9", "two", "4.5", "0x4", "on=4",
		"k=k=4", "+4", "99999999999999999999", "∞",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := dragonfly.ParseDecisionTrace(s)
		if err != nil {
			if k != 0 {
				t.Fatalf("ParseDecisionTrace(%q) errored but returned %d", s, k)
			}
			return
		}
		if k < 0 || k > 8 {
			t.Fatalf("ParseDecisionTrace(%q) accepted an out-of-range depth %d", s, k)
		}
		if k >= 1 {
			if opt := dragonfly.WithDecisionTrace(k); opt == nil {
				t.Fatalf("ParseDecisionTrace(%q) = %d does not build a WithDecisionTrace option", s, k)
			}
		}
		if k2, err := dragonfly.ParseDecisionTrace(strings.ToUpper(" " + s + " ")); err != nil || k2 != k {
			t.Fatalf("ParseDecisionTrace(%q) is not normalization-stable: %v / %d", s, err, k2)
		}
	})
}

// FuzzParseArrival fuzzes the open-arrival spec parser: no panics, every
// accepted input must come back as a validated spec whose streams can be
// built, and acceptance must be stable under the documented normalization.
func FuzzParseArrival(f *testing.F) {
	for _, seed := range []string{
		"latency:poisson:150000",
		"latency:poisson:150000:nodes=2-8;batch:gamma:600000:shape=2:nodes=8-64",
		"besteffort:weibull:300000:diurnal=0.5:period=10000000:phase=0.25",
		"batch:gamma:50000:shape=0.5:dur=1000-90000:name=etl",
		"LATENCY:POISSON:1000", " latency : exp : 42 ", "be:weibull:77:shape=1.5",
		"", ";", "latency", "latency:poisson", "latency:poisson:0",
		"latency:zipf:100", "gold:poisson:100", "latency:poisson:100:bogus=1",
		"latency:poisson:100:nodes=8-2", "latency:poisson:100:shape=-1",
		"latency:poisson:100:diurnal=2", "latency:poisson:99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := dragonfly.ParseArrival(s)
		if err != nil {
			if len(spec.Clients) != 0 {
				t.Fatalf("ParseArrival(%q) errored but returned clients %+v", s, spec.Clients)
			}
			return
		}
		if len(spec.Clients) == 0 {
			t.Fatalf("ParseArrival(%q) accepted an empty spec", s)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseArrival(%q) accepted an invalid spec: %v", s, err)
		}
		for _, c := range spec.Clients {
			if c.MeanInterarrivalCycles <= 0 || c.MinNodes < 1 || c.MaxNodes < c.MinNodes {
				t.Fatalf("ParseArrival(%q) accepted a degenerate client %+v", s, c)
			}
		}
		if spec2, err := dragonfly.ParseArrival(strings.ToUpper(" " + s + " ")); err != nil ||
			len(spec2.Clients) != len(spec.Clients) {
			t.Fatalf("ParseArrival(%q) is not normalization-stable: %v / %d clients",
				s, err, len(spec2.Clients))
		}
	})
}

// FuzzParseGeometry fuzzes the geometry-preset parser: no panics, and every
// accepted input must come back as a validated, buildable machine shape.
func FuzzParseGeometry(f *testing.F) {
	for _, seed := range []string{
		"small", "medium", "large", "daint", "Small", "DAINT",
		"small:1", "small:8", "medium:12", "aries:2", "aries:64",
		"", "aries", "small:", "small:0", "small:-3", "small:1e9", "tiny",
		"large:2", "daint:14", "small:999999999999999999999", ":", "::", "a:b:c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := dragonfly.ParseGeometry(s)
		if err != nil {
			if g != (dragonfly.Geometry{}) {
				t.Fatalf("ParseGeometry(%q) errored but returned a non-zero geometry %+v", s, g)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseGeometry(%q) accepted an invalid geometry: %v", s, err)
		}
		if g.Nodes() <= 0 || g.Routers() <= 0 {
			t.Fatalf("ParseGeometry(%q) accepted an empty machine: %+v", s, g)
		}
		// Accepted names must be stable under the documented normalization
		// (case and surrounding spaces), or CLI flags become inconsistent.
		if g2, err := dragonfly.ParseGeometry(strings.ToUpper(s)); err != nil || g2 != g {
			t.Fatalf("ParseGeometry(%q) is case-sensitive: %v / %+v", s, err, g2)
		}
	})
}
