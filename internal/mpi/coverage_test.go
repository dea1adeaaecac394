package mpi

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// probe instruments a run: its HostNoise sampler returns a non-zero delay and
// logs (rank, time) for every sample, and its routing providers log every
// SelectMode call and charge a selector overhead on every period-th call of a
// rank. Two runs of one program agree on both logs only if they sample host
// noise and select modes at the same simulated times in the same order.
type probe struct {
	eng *sim.Engine
	// noise enables the HostNoise sampler; period is the overhead period (0
	// never charges one).
	noise  bool
	period int
	// noiseLog holds (rank, time) pairs; selectLog holds (rank, time, size,
	// kind, overhead) tuples.
	noiseLog, selectLog []int64
}

// config returns the communicator configuration that feeds p.
func (p *probe) config() Config {
	cfg := Config{Routing: func(rank int) RoutingProvider { return &probeRouting{p: p, rank: rank} }}
	if p.noise {
		cfg.HostNoise = p.hostNoise
	}
	return cfg
}

func (p *probe) hostNoise(rank int) int64 {
	k := len(p.noiseLog) / 2
	p.noiseLog = append(p.noiseLog, int64(rank), int64(p.eng.Now()))
	return 1 + int64((rank*7+k*13)%50)
}

// probeRouting is one rank's logging provider; it alternates two routing
// modes so that the selections show in the packets' paths.
type probeRouting struct {
	p     *probe
	rank  int
	calls int
}

func (pr *probeRouting) SelectMode(size int64, kind core.TrafficKind) (routing.Mode, int64, func(DeliveryCounters)) {
	pr.calls++
	p := pr.p
	var overhead int64
	if p.period > 0 && pr.calls%p.period == 0 {
		overhead = 30 + size%41
	}
	p.selectLog = append(p.selectLog, int64(pr.rank), int64(p.eng.Now()), size, int64(kind), overhead)
	mode := routing.Adaptive
	if pr.calls%2 == 0 {
		mode = routing.MinHash
	}
	return mode, overhead, nil
}

// probeComm builds a communicator of n ranks on SmallConfig(2), fed by p.
func probeComm(t testing.TB, n int, p *probe, seed int64) *Comm {
	t.Helper()
	c := testCommOn(t, topo.SmallConfig(2), n, p.config(), seed)
	p.eng = c.Fabric().Engine()
	return c
}

// writeRun writes what a run left behind to h: each rank's finish time and
// whether it failed, both logs and the packets the fabric injected.
func writeRun(h hash.Hash, c *Comm, finish []sim.Time, p *probe) {
	for i, ts := range finish {
		fmt.Fprintf(h, "rank %d finish %d err %v\n", i, ts, c.Rank(i).Err() != nil)
	}
	fmt.Fprintf(h, "noise %v\nselect %v\npackets %d\n", p.noiseLog, p.selectLog, c.Fabric().PacketsInjected())
}

// coverageProgram makes every blocking call of the package once on each
// rank, with root as the root of the rooted ones, and records the rank's
// finish time.
func coverageProgram(root int, finish []sim.Time) func(*Rank) {
	return func(r *Rank) {
		n, me := r.Size(), r.Rank()
		if peer := me ^ 1; peer < n {
			if me%2 == 0 {
				r.Send(peer, 700, core.PointToPoint)
				r.Recv(peer)
			} else {
				r.Recv(peer)
				r.Send(peer, 700, core.PointToPoint)
			}
		}
		r.SendRecv((me+1)%n, 300, (me-1+n)%n, core.PointToPoint)
		r.Barrier()
		r.Broadcast(root, 900)
		r.Allreduce(400)
		r.Alltoall(200)
		r.AllreduceRing(1200)
		r.AllreduceRabenseifner(1600)
		r.AlltoallBruck(100)
		r.AlltoallSpread(90)
		r.BroadcastScatterAllgather(root, 2000)
		finish[me] = r.Now()
	}
}

// TestHostNoiseAndOverheadDigest pins where every blocking call samples host
// noise and charges selector overhead: each call of the package runs on 8 and
// on 6 ranks with non-zero roots, a host-noise sample at every point, and an
// overhead on every third SelectMode of a rank. The digest covers the
// per-rank finish times, both logs and the injected packets, so a call that
// drops, adds or moves one host-noise sample or one overhead charge changes
// it.
func TestHostNoiseAndOverheadDigest(t *testing.T) {
	const want = "f781e236cf276516"
	h := sha256.New()
	for _, tc := range []struct{ n, root int }{{8, 3}, {6, 2}} {
		p := &probe{noise: true, period: 3}
		c := probeComm(t, tc.n, p, 41)
		finish := make([]sim.Time, tc.n)
		if err := runComm(c, coverageProgram(tc.root, finish)); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		for i := 0; i < tc.n; i++ {
			if err := c.Rank(i).Err(); err != nil {
				t.Fatalf("n=%d rank %d: %v", tc.n, i, err)
			}
		}
		if len(p.noiseLog) == 0 || len(p.selectLog) == 0 {
			t.Fatalf("n=%d: %d noise samples, %d selections logged", tc.n, len(p.noiseLog)/2, len(p.selectLog)/5)
		}
		fmt.Fprintf(h, "n=%d root=%d\n", tc.n, tc.root)
		writeRun(h, c, finish, p)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}
