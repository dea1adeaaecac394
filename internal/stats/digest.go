package stats

import (
	"math"
	"sort"
)

// DefaultExactSamples is the number of samples a Digest stores exactly before
// switching to the fixed-size P² markers. Below this count every quantile the
// digest reports is bit-identical to the batch helpers (Percentile, Quartiles,
// Summarize) on the same samples — which is what keeps existing golden outputs
// unchanged at current experiment scales — and the buffer itself caps the
// digest's memory at a small constant.
const DefaultExactSamples = 256

// Digest is a fixed-size streaming summary of a sample stream: count, sum,
// extrema, variance (Welford) and the three quartiles. Small streams (up to
// the exact limit) are answered exactly from a bounded buffer; past the limit
// the digest switches to P²-style quantile markers (Jain & Chlamtac, 1985),
// so memory stays O(1) no matter how many iterations a machine-scale run
// records. The zero value is NOT ready to use; construct with NewDigest.
type Digest struct {
	limit int
	exact []float64

	count    int64
	sum      float64
	min, max float64
	mean, m2 float64 // Welford running mean / sum of squared deviations

	q1, med, q3 p2
}

// NewDigest returns an empty digest with the default exact-sample limit.
func NewDigest() *Digest { return NewDigestLimit(DefaultExactSamples) }

// NewDigestLimit returns an empty digest that answers exactly up to limit
// samples (minimum 5: the P² markers need five observations to initialize).
func NewDigestLimit(limit int) *Digest {
	if limit < 5 {
		limit = 5
	}
	d := &Digest{limit: limit}
	d.q1.init(0.25)
	d.med.init(0.50)
	d.q3.init(0.75)
	return d
}

// Add records one sample.
func (d *Digest) Add(x float64) {
	if d.count == 0 || x < d.min {
		d.min = x
	}
	if d.count == 0 || x > d.max {
		d.max = x
	}
	d.count++
	d.sum += x
	delta := x - d.mean
	d.mean += delta / float64(d.count)
	d.m2 += delta * (x - d.mean)
	// The P² markers consume every sample from the start, so the digest can
	// cross the exact limit seamlessly: no replay, no re-initialization.
	d.q1.add(x)
	d.med.add(x)
	d.q3.add(x)
	if d.count <= int64(d.limit) {
		d.exact = append(d.exact, x)
	} else if d.exact != nil {
		d.exact = nil // past the limit: drop the buffer, markers take over
	}
}

// Count returns the number of samples recorded.
func (d *Digest) Count() int64 { return d.count }

// Sum returns the sum of all samples.
func (d *Digest) Sum() float64 { return d.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 when
// fewer than two samples were recorded.
func (d *Digest) StdDev() float64 {
	if d.count < 2 {
		return 0
	}
	return math.Sqrt(d.m2 / float64(d.count-1))
}

// Min returns the smallest sample, or 0 when empty.
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest sample, or 0 when empty.
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return 0
	}
	return d.max
}

// exactMode reports whether the digest still holds every sample.
func (d *Digest) exactMode() bool { return d.count > 0 && int64(len(d.exact)) == d.count }

// Percentile returns the p-th percentile (0 <= p <= 100). In exact mode it
// matches Percentile on the recorded samples bit for bit; in streaming mode
// it interpolates piecewise-linearly over the P² anchors
// (min, Q1, median, Q3, max).
func (d *Digest) Percentile(p float64) float64 {
	if d.count == 0 {
		return 0
	}
	if d.exactMode() {
		sorted := append([]float64(nil), d.exact...)
		sort.Float64s(sorted)
		return percentileSorted(sorted, p)
	}
	anchors := [5]struct{ p, v float64 }{
		{0, d.min}, {25, d.q1.value()}, {50, d.med.value()}, {75, d.q3.value()}, {100, d.max},
	}
	if p <= 0 {
		return anchors[0].v
	}
	for i := 1; i < len(anchors); i++ {
		if p <= anchors[i].p {
			lo, hi := anchors[i-1], anchors[i]
			frac := (p - lo.p) / (hi.p - lo.p)
			return lo.v + frac*(hi.v-lo.v)
		}
	}
	return anchors[4].v
}

// Quartiles returns Q1, the median and Q3.
func (d *Digest) Quartiles() (q1, median, q3 float64) {
	return d.Percentile(25), d.Percentile(50), d.Percentile(75)
}

// Median returns the 50th percentile.
func (d *Digest) Median() float64 { return d.Percentile(50) }

// Summary condenses the digest into the box-plot Summary the experiment
// tables render. In exact mode it delegates to Summarize, so the output —
// including the outlier count — is bit-identical to the batch path on the
// same samples. In streaming mode the quartiles come from the P² markers and
// the whisker-dependent Outliers is zero: it needs the full sample, which a
// fixed-size digest by definition no longer has.
func (d *Digest) Summary() Summary {
	if d.count == 0 {
		return Summary{}
	}
	if d.exactMode() {
		return Summarize(d.exact)
	}
	q1, med, q3 := d.Quartiles()
	iqr := q3 - q1
	qcd := 0.0
	if q1+q3 != 0 {
		qcd = iqr / (q3 + q1)
	}
	return Summary{
		N:      int(d.count),
		Mean:   d.Mean(),
		StdDev: d.StdDev(),
		Min:    d.min,
		Q1:     q1,
		Median: med,
		Q3:     q3,
		Max:    d.max,
		IQR:    iqr,
		QCD:    qcd,
	}
}

// p2 is one P² quantile estimator: five markers tracking (min, p/2, p,
// (1+p)/2, max) whose middle height converges to the p-quantile of the
// stream. Fixed size: five heights, five integer positions, the desired
// positions and their per-sample increments.
type p2 struct {
	p    float64
	seen int        // samples consumed, also the init counter while < 5
	q    [5]float64 // marker heights
	n    [5]float64 // marker positions (1-based)
	np   [5]float64 // desired positions
	dn   [5]float64 // desired-position increments
}

func (e *p2) init(p float64) {
	e.p = p
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// add consumes one sample.
func (e *p2) add(x float64) {
	if e.seen < 5 {
		e.q[e.seen] = x
		e.seen++
		if e.seen == 5 {
			sort.Float64s(e.q[:])
			p := e.p
			e.n = [5]float64{1, 2, 3, 4, 5}
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	e.seen++
	// Find the marker cell the sample falls into, extending the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust the three interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		delta := e.np[i] - e.n[i]
		if (delta >= 1 && e.n[i+1]-e.n[i] > 1) || (delta <= -1 && e.n[i-1]-e.n[i] < -1) {
			sign := 1.0
			if delta < 0 {
				sign = -1.0
			}
			// Piecewise-parabolic (P²) height prediction; fall back to linear
			// interpolation when the parabola would break monotonicity.
			qn := e.parabolic(i, sign)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.n[i] += sign
		}
	}
}

func (e *p2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

func (e *p2) linear(i int, d float64) float64 {
	return e.q[i] + d*(e.q[i+int(d)]-e.q[i])/(e.n[i+int(d)]-e.n[i])
}

// value returns the current estimate of the p-quantile. Before five samples
// have arrived it sorts what it has and interpolates exactly.
func (e *p2) value() float64 {
	if e.seen == 0 {
		return 0
	}
	if e.seen < 5 {
		var buf [5]float64
		copy(buf[:], e.q[:e.seen])
		sorted := buf[:e.seen]
		sort.Float64s(sorted)
		return percentileSorted(sorted, e.p*100)
	}
	return e.q[2]
}
