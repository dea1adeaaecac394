package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestDigestExactMatchesBatch pins the small-N contract: below the exact
// limit every digest statistic is bit-identical to the batch helpers on the
// same samples — the property that keeps golden experiment outputs unchanged
// when a result path switches from slices to the digest.
func TestDigestExactMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 17, 30, 100, DefaultExactSamples} {
		d := NewDigest()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*1000 + 5000
			d.Add(xs[i])
		}
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
			if got, want := d.Percentile(p), Percentile(xs, p); got != want {
				t.Fatalf("n=%d: Percentile(%v) = %v, want %v", n, p, got, want)
			}
		}
		if got, want := d.Summary(), Summarize(xs); got != want {
			t.Fatalf("n=%d: Summary() = %+v, want %+v", n, got, want)
		}
		if got, want := d.Mean(), Mean(xs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d: Mean() = %v, want %v", n, got, want)
		}
		if got, want := d.StdDev(), StdDev(xs); math.Abs(got-want)/math.Max(want, 1) > 1e-9 {
			t.Fatalf("n=%d: StdDev() = %v, want %v", n, got, want)
		}
	}
}

// TestDigestStreamingAccuracy checks the P² markers after the exact limit:
// on well-behaved distributions the quartile estimates must land within a
// few percent of the true quantiles while memory stays fixed.
func TestDigestStreamingAccuracy(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*rand.Rand) float64
		q    func(p float64) float64 // true quantile function
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 },
			func(p float64) float64 { return p * 100 }},
		{"normal", func(r *rand.Rand) float64 { return r.NormFloat64()*10 + 50 },
			func(p float64) float64 {
				// Inverse CDF at the quartiles only.
				switch p {
				case 0.25:
					return 50 - 0.67448975*10
				case 0.5:
					return 50
				case 0.75:
					return 50 + 0.67448975*10
				}
				panic("unexpected quantile")
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			d := NewDigest()
			const n = 200_000
			for i := 0; i < n; i++ {
				d.Add(c.gen(rng))
			}
			if d.exact != nil {
				t.Fatal("digest kept the exact buffer past the limit")
			}
			q1, med, q3 := d.Quartiles()
			for _, chk := range []struct {
				got  float64
				want float64
			}{{q1, c.q(0.25)}, {med, c.q(0.5)}, {q3, c.q(0.75)}} {
				scale := c.q(0.75) - c.q(0.25)
				if math.Abs(chk.got-chk.want) > 0.05*scale {
					t.Errorf("quantile estimate %v too far from %v (scale %v)", chk.got, chk.want, scale)
				}
			}
			if d.Count() != n {
				t.Fatalf("Count = %d, want %d", d.Count(), n)
			}
		})
	}
}

// TestDigestStreamingSummary checks the streaming Summary shape: quartile
// ordering, extrema, and the documented zeroing of the whisker-dependent
// outlier count.
func TestDigestStreamingSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDigestLimit(5)
	for i := 0; i < 10_000; i++ {
		d.Add(rng.ExpFloat64() * 100)
	}
	s := d.Summary()
	if s.N != 10_000 {
		t.Fatalf("N = %d", s.N)
	}
	if !(s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max) {
		t.Fatalf("quartiles out of order: %+v", s)
	}
	if s.Outliers != 0 {
		t.Fatalf("the whisker-dependent outlier count must be zero in streaming mode: %+v", s)
	}
	if s.IQR != s.Q3-s.Q1 {
		t.Fatalf("IQR = %v, want %v", s.IQR, s.Q3-s.Q1)
	}
}

// TestDigestMonotoneQuantiles: percentile queries are monotone in p in both
// modes, and extremes clamp to min/max.
func TestDigestMonotoneQuantiles(t *testing.T) {
	for _, n := range []int{20, 5000} {
		rng := rand.New(rand.NewSource(11))
		d := NewDigestLimit(100)
		for i := 0; i < n; i++ {
			d.Add(rng.Float64()*200 - 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := d.Percentile(p)
			if v < prev {
				t.Fatalf("n=%d: Percentile(%v)=%v < previous %v", n, p, v, prev)
			}
			prev = v
		}
		if d.Percentile(0) != d.Min() || d.Percentile(100) != d.Max() {
			t.Fatalf("extremes do not clamp to min/max")
		}
	}
}

// TestDigestEmpty pins the zero-sample behaviour.
func TestDigestEmpty(t *testing.T) {
	d := NewDigest()
	if d.Count() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty digest must report zeros")
	}
	if s := d.Summary(); s != (Summary{}) {
		t.Fatalf("empty Summary = %+v", s)
	}
}
