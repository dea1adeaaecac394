package sched

import (
	"fmt"
	"math"
	"math/rand"

	"dragonfly/internal/noise"
	"dragonfly/internal/sim"
)

// MixConfig shapes a synthetic batch workload: a stream of jobs with
// log-uniform sizes, exponential inter-arrival times and a configurable share
// of communication-intensive jobs. It stands in for the production job mix the
// paper's measurements were exposed to on Piz Daint and Cori.
type MixConfig struct {
	// Jobs is the number of jobs generated.
	Jobs int
	// MinNodes and MaxNodes bound the per-job node counts (log-uniform).
	MinNodes int
	MaxNodes int
	// MeanInterarrivalCycles is the mean gap between consecutive submissions.
	MeanInterarrivalCycles sim.Time
	// MinDurationCycles and MaxDurationCycles bound job run times (log-uniform).
	MinDurationCycles sim.Time
	MaxDurationCycles sim.Time
	// CommIntensiveFraction is the probability that a job is communication
	// intensive (heavier traffic, marked for the hybrid placement policy).
	CommIntensiveFraction float64
	// IntervalCycles is the mean gap between a job's messages. Ordinary jobs
	// send uniform-random messages of mixMessageBytes; communication-intensive
	// jobs send twice as large messages with an all-to-all "bully" pattern.
	IntervalCycles int64
	// Seed seeds the mix's private random stream.
	Seed int64
}

// mixMessageBytes is the message size of an ordinary job's traffic.
const mixMessageBytes = 8 << 10

// DefaultMixConfig returns a small mix suitable for laptop-scale simulations.
func DefaultMixConfig() MixConfig {
	return MixConfig{
		Jobs:                   16,
		MinNodes:               2,
		MaxNodes:               16,
		MeanInterarrivalCycles: 200_000,
		MinDurationCycles:      500_000,
		MaxDurationCycles:      4_000_000,
		CommIntensiveFraction:  0.35,
		IntervalCycles:         25_000,
		Seed:                   1,
	}
}

// Validate reports whether the mix configuration is usable.
func (c MixConfig) Validate() error {
	switch {
	case c.Jobs <= 0:
		return fmt.Errorf("sched: mix needs at least one job")
	case c.MinNodes <= 0 || c.MaxNodes < c.MinNodes:
		return fmt.Errorf("sched: mix node bounds [%d, %d] are invalid", c.MinNodes, c.MaxNodes)
	case c.MeanInterarrivalCycles <= 0:
		return fmt.Errorf("sched: mean interarrival must be positive")
	case c.MinDurationCycles <= 0 || c.MaxDurationCycles < c.MinDurationCycles:
		return fmt.Errorf("sched: mix duration bounds [%d, %d] are invalid", c.MinDurationCycles, c.MaxDurationCycles)
	case c.CommIntensiveFraction < 0 || c.CommIntensiveFraction > 1:
		return fmt.Errorf("sched: CommIntensiveFraction must be in [0, 1]")
	case c.IntervalCycles <= 0:
		return fmt.Errorf("sched: IntervalCycles must be positive")
	}
	return nil
}

// logUniform samples an integer in [lo, hi] with log-uniform density.
func logUniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	v := float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())
	out := int64(v)
	if out < lo {
		out = lo
	}
	if out > hi {
		out = hi
	}
	return out
}

// GenerateMix builds the job list described by the configuration. Node counts
// are clamped to maxJobNodes (typically the machine size minus any reserved
// foreground allocation).
func GenerateMix(cfg MixConfig, maxJobNodes int) ([]JobSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxJobNodes < cfg.MinNodes {
		return nil, fmt.Errorf("sched: machine provides %d schedulable nodes, mix needs at least %d",
			maxJobNodes, cfg.MinNodes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]JobSpec, 0, cfg.Jobs)
	var arrival sim.Time
	for i := 0; i < cfg.Jobs; i++ {
		nodes := int(logUniform(rng, int64(cfg.MinNodes), int64(cfg.MaxNodes)))
		if nodes > maxJobNodes {
			nodes = maxJobNodes
		}
		duration := logUniform(rng, cfg.MinDurationCycles, cfg.MaxDurationCycles)
		commIntensive := rng.Float64() < cfg.CommIntensiveFraction
		traffic := TrafficSpec{
			Pattern:        noise.UniformRandom,
			MessageBytes:   mixMessageBytes,
			IntervalCycles: cfg.IntervalCycles,
		}
		if commIntensive {
			traffic.Pattern = noise.AlltoallBully
			traffic.MessageBytes = mixMessageBytes * 2
		}
		specs = append(specs, JobSpec{
			Name:           fmt.Sprintf("job-%03d", i),
			Nodes:          nodes,
			ArrivalCycles:  arrival,
			DurationCycles: duration,
			CommIntensive:  commIntensive,
			Traffic:        traffic,
		})
		gap := sim.Time(rng.ExpFloat64() * float64(cfg.MeanInterarrivalCycles))
		if gap < 1 {
			gap = 1
		}
		arrival += gap
	}
	return specs, nil
}
