package harness

import (
	"dragonfly"
	"dragonfly/internal/routing"
	"dragonfly/internal/topo"
)

// systemKey is the system-construction configuration of a TrialSpec: two specs
// with equal keys hand dragonfly.New identical options and therefore build
// byte-identical machines (up to the seed). The nil-ness of the optional
// override is part of the key — the harness deliberately does not resolve
// defaults itself, so it can never drift from the facade's own resolution.
// All fields are comparable value types, so key equality is plain ==.
type systemKey struct {
	geometry      topo.Config
	decisionTrace int
	hasRouting    bool
	routing       routing.Params
}

// key extracts the construction-affecting fields of a spec.
func (spec TrialSpec[T]) key() systemKey {
	k := systemKey{geometry: spec.Geometry, decisionTrace: spec.DecisionTraceK}
	if spec.RoutingParams != nil {
		k.hasRouting, k.routing = true, *spec.RoutingParams
	}
	return k
}

// systemPool is a single-slot, single-goroutine cache of the most recently
// built System. Experiment sweeps run many trials over the same geometry and
// routing configuration, differing only in seed and measurement; reusing the
// System through dragonfly.System.Reset skips topology construction and
// routing-table derivation entirely, which used to dominate trial setup.
// Reset is byte-identical to a fresh build (the facade guarantees it, and the
// serial-vs-parallel determinism tests exercise both reuse patterns), so
// pooling never changes results. Each executor worker owns one pool; pools
// are never shared across goroutines.
type systemPool struct {
	key   systemKey
	sys   *dragonfly.System
	valid bool
}

// acquire returns a System built with the key's configuration, reusing the
// cached one when the key matches.
func (p *systemPool) acquire(key systemKey, seed int64) (*dragonfly.System, error) {
	if p.valid && p.key == key {
		if err := p.sys.Reset(seed); err == nil {
			return p.sys, nil
		}
		p.valid = false
	}
	opts := []dragonfly.Option{
		dragonfly.WithGeometry(key.geometry),
		dragonfly.WithSeed(seed),
	}
	if key.decisionTrace > 0 {
		opts = append(opts, dragonfly.WithDecisionTrace(key.decisionTrace))
	}
	if key.hasRouting {
		opts = append(opts, dragonfly.WithRouting(key.routing))
	}
	sys, err := dragonfly.New(opts...)
	if err != nil {
		return nil, err
	}
	p.key, p.sys, p.valid = key, sys, true
	return sys, nil
}

// invalidate drops the cached system, e.g. after a trial panicked and may
// have left it in an undefined state.
func (p *systemPool) invalidate() {
	p.sys, p.valid = nil, false
}
