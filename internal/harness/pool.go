package harness

import (
	"dragonfly"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
)

// envKey is the system-construction configuration of a TrialSpec: two specs
// with equal keys hand dragonfly.New identical options and therefore build
// byte-identical machines (up to the seed). The nil-ness of the optional
// overrides is part of the key — the harness deliberately does not resolve
// defaults itself, so it can never drift from the facade's own resolution.
// All fields are comparable value types, so key equality is plain ==.
type envKey struct {
	geometry      topo.Config
	shards        int
	decisionTrace int
	hasRouting    bool
	routing       routing.Params
	hasNetwork    bool
	network       network.Config
}

// specKey extracts the construction-affecting fields of a spec.
func specKey(spec TrialSpec) envKey {
	k := envKey{geometry: spec.Geometry, shards: spec.Shards, decisionTrace: spec.DecisionTraceK}
	if spec.RoutingParams != nil {
		k.hasRouting, k.routing = true, *spec.RoutingParams
	}
	if spec.Network != nil {
		k.hasNetwork, k.network = true, *spec.Network
	}
	return k
}

// systemPool is a single-slot, single-goroutine cache of the most recently
// built System. Experiment sweeps run many trials over the same geometry and
// fabric configuration, differing only in seed and measurement; reusing the
// System through dragonfly.System.Reset skips topology construction and
// routing-table derivation entirely, which used to dominate trial setup.
// Reset is byte-identical to a fresh build (the facade guarantees it, and the
// serial-vs-parallel determinism tests exercise both reuse patterns), so
// pooling never changes results. Each executor worker owns one pool; pools
// are never shared across goroutines.
type systemPool struct {
	key   envKey
	sys   *dragonfly.System
	valid bool
}

// acquire returns a System for the spec, reusing the cached one when the
// construction key matches. A nil pool always builds fresh.
func (p *systemPool) acquire(spec TrialSpec, seed int64) (*dragonfly.System, error) {
	var key envKey
	if p != nil {
		key = specKey(spec)
		if p.valid && p.key == key {
			if err := p.sys.Reset(seed); err == nil {
				return p.sys, nil
			}
			p.valid = false
		}
	}
	opts := []dragonfly.Option{
		dragonfly.WithGeometry(spec.Geometry),
		dragonfly.WithSeed(seed),
	}
	if spec.Shards > 0 {
		opts = append(opts, dragonfly.WithShards(spec.Shards))
	}
	if spec.DecisionTraceK > 0 {
		opts = append(opts, dragonfly.WithDecisionTrace(spec.DecisionTraceK))
	}
	if spec.RoutingParams != nil {
		opts = append(opts, dragonfly.WithRouting(*spec.RoutingParams))
	}
	if spec.Network != nil {
		opts = append(opts, dragonfly.WithNetworkConfig(*spec.Network))
	}
	sys, err := dragonfly.New(opts...)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.key, p.sys, p.valid = key, sys, true
	}
	return sys, nil
}

// invalidate drops the cached system, e.g. after a trial panicked and may
// have left it in an undefined state.
func (p *systemPool) invalidate() {
	if p != nil {
		p.sys, p.valid = nil, false
	}
}
