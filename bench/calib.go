package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"time"
	"unsafe"

	"dragonfly/internal/stats"
)

// Host speed on a shared machine drifts by ten to twenty percent within
// minutes, and which resource the neighbours contend for (the cores, the
// caches and memory, the cross-core wake-ups of goroutine hand-off) changes
// from one period to the next. A run therefore times three fixed kernels
// that use none of the repository's code, each exercising one of those
// resources, after every unit of work it measures, and reports its times
// scaled to the reference host speed by the factor of the phase (the setup
// builds, then the trials) that measured them: the geometric mean, over the
// kernels, of calibRef ÷ the kernel's median time in that phase. No single
// kernel tracks every kind of interference. The median ignores the few
// kernel timings that overlap a garbage collection the unit left running.
// baseline/spread_raw_vs_scaled.jsonl holds the evidence: ten runs with ten
// seeds per workload, each carrying both its scaled and its raw wall-time
// metrics (-raw).
var calibRef = [3]time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}

// calibTableBytes is the size of the random walk's table: larger than the
// caches, like the simulator's link and NIC arenas. The table lives outside
// the Go heap so it does not move the garbage collector's pacing, and
// peak_rss_mib subtracts it.
const (
	calibTableBytes = 8 << 20
	calibWords      = calibTableBytes / 4
)

var (
	calibTable []uint32
	calibBuf   [16 << 10]byte
	calibSink  uint32
)

// mapCalibTable maps and fills calibTable once per process.
func mapCalibTable() error {
	if calibTable != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, calibTableBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the calibration table: %w", err)
	}
	calibTable = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibWords)
	r := rand.New(rand.NewSource(1))
	for i := range calibTable {
		calibTable[i] = r.Uint32()
	}
	return nil
}

// calibrator collects the kernel timings of one phase of a run. A nil
// calibrator (the traced run, whose times are raw) records nothing.
type calibrator struct {
	seconds [3][]float64
}

// sample times each kernel once.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	for k, kernel := range [...]func(){hashKernel, walkKernel, pingPongKernel} {
		start := time.Now()
		kernel()
		c.seconds[k] = append(c.seconds[k], time.Since(start).Seconds())
	}
}

// factor is the run's host-speed factor: a wall time times the factor is the
// time at the reference host speed.
func (c *calibrator) factor() float64 {
	f := 1.0
	for k, s := range c.seconds {
		f *= calibRef[k].Seconds() / stats.Median(s)
	}
	return math.Cbrt(f)
}

// timePowers maps each end-to-end metric measured in wall time to the power
// of seconds in its unit.
var timePowers = map[string]float64{"trial_s_p50": 1, "trial_s_p90": 1, "work_per_s": -1, "setup_s": 1}

// scaleTimes scales the named time metrics to the reference host speed by
// the factor of c, whose samples were taken while they were measured. With
// raw set it keeps each wall-time value too, as raw.<name>.
func (o *outcome) scaleTimes(c *calibrator, raw bool, names ...string) {
	f := c.factor()
	for _, name := range names {
		v := o.metrics[name]
		if raw {
			o.metrics["raw."+name] = v
		}
		v.Value *= math.Pow(f, timePowers[name])
		o.metrics[name] = v
	}
}

// hashKernel is compute-bound: SHA-256 over a buffer in the caches.
func hashKernel() {
	for i := 0; i < 400; i++ {
		s := sha256.Sum256(calibBuf[:])
		calibBuf[i%len(calibBuf)] = s[0]
	}
}

// walkKernel is memory-latency-bound: a dependent random walk over calibTable.
func walkKernel() {
	idx := uint32(0)
	for i := uint32(0); i < 1<<16; i++ {
		idx = calibTable[idx&(calibWords-1)] ^ i
	}
	calibSink += idx
}

// pingPongKernel hands control back and forth between two goroutines over
// unbuffered channels, as the MPI layer's rank scheduler does.
func pingPongKernel() {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < 10000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
}
