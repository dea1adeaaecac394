package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(xs), 5) {
		t.Fatalf("Mean = %v, want 5", Mean(xs))
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/singleton cases must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max must be 0")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !almostEqual(Percentile(xs, 0), 1) || !almostEqual(Percentile(xs, 100), 5) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almostEqual(Median(xs), 3) {
		t.Fatalf("Median = %v", Median(xs))
	}
	if !almostEqual(Percentile(xs, 25), 2) || !almostEqual(Percentile(xs, 75), 4) {
		t.Fatal("quartile percentiles wrong")
	}
	even := []float64{1, 2, 3, 4}
	if !almostEqual(Median(even), 2.5) {
		t.Fatalf("Median(even) = %v, want 2.5", Median(even))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Unsorted input must not be modified.
	unsorted := []float64{5, 1, 3}
	_ = Median(unsorted)
	if unsorted[0] != 5 || unsorted[1] != 1 || unsorted[2] != 3 {
		t.Fatal("Percentile modified its input")
	}
}

func TestQuartilesIQRQCD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, med, q3 := Quartiles(xs)
	if !almostEqual(q1, 3) || !almostEqual(med, 5) || !almostEqual(q3, 7) {
		t.Fatalf("Quartiles = %v %v %v", q1, med, q3)
	}
	if !almostEqual(IQR(xs), 4) {
		t.Fatalf("IQR = %v", IQR(xs))
	}
	if !almostEqual(QCD(xs), 0.4) {
		t.Fatalf("QCD = %v, want 0.4", QCD(xs))
	}
	if QCD([]float64{0, 0, 0}) != 0 {
		t.Fatal("QCD of zeros must be 0")
	}
	if q1, m, q3 := Quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Fatal("empty quartiles must be 0")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil || !almostEqual(r, 1) {
		t.Fatalf("perfect correlation = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = PearsonCorrelation(xs, neg)
	if !almostEqual(r, -1) {
		t.Fatalf("perfect anti-correlation = %v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	r, err = PearsonCorrelation(xs, flat)
	if err != nil || r != 0 {
		t.Fatalf("zero-variance correlation = %v, %v", r, err)
	}
	if _, err := PearsonCorrelation(xs, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := PearsonCorrelation([]float64{1}, []float64{1}); err == nil {
		t.Fatal("too few samples must error")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 100}
	s := Summarize(xs)
	if s.N != 10 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Outliers != 1 {
		t.Fatalf("Outliers = %d, want 1 (the value 100)", s.Outliers)
	}
	if s.Median < 13 || s.Median > 16 {
		t.Fatalf("Median = %v", s.Median)
	}
	if s.MedianCILow > s.Median || s.MedianCIHigh < s.Median {
		t.Fatalf("median CI [%v, %v] does not contain median %v", s.MedianCILow, s.MedianCIHigh, s.Median)
	}
	if s.Max != 100 || s.Min != 10 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.String() == "" {
		t.Fatal("String must not be empty")
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary must have N=0")
	}
}

func TestBootstrapMedianCI(t *testing.T) {
	lo, hi := BootstrapMedianCI([]float64{5}, 100, 0.95, 1)
	if lo != 5 || hi != 5 {
		t.Fatal("singleton CI must collapse")
	}
	lo, hi = BootstrapMedianCI(nil, 100, 0.95, 1)
	if lo != 0 || hi != 0 {
		t.Fatal("empty CI must be zero")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	lo, hi = BootstrapMedianCI(xs, 300, 0.95, 7)
	if lo > Median(xs) || hi < Median(xs) {
		t.Fatalf("CI [%v,%v] does not contain the median", lo, hi)
	}
	if hi-lo > 30 {
		t.Fatalf("CI suspiciously wide: [%v, %v]", lo, hi)
	}
	// Determinism.
	lo2, hi2 := BootstrapMedianCI(xs, 300, 0.95, 7)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap not deterministic for fixed seed")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6}, 2)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("Normalize = %v", out)
	}
	same := Normalize([]float64{2, 4}, 0)
	if same[0] != 2 || same[1] != 4 {
		t.Fatal("zero denominator must return the input values")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 2.5, 3.5, 9.5, -3, 42}
	bins := Histogram(xs, 10, 0, 10)
	if len(bins) != 10 {
		t.Fatalf("len(bins) = %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b
	}
	if total != len(xs) {
		t.Fatalf("histogram lost samples: %d != %d", total, len(xs))
	}
	if bins[0] != 2 { // 0.5 and the clamped -3
		t.Fatalf("bins[0] = %d, want 2", bins[0])
	}
	if bins[9] != 2 { // 9.5 and the clamped 42
		t.Fatalf("bins[9] = %d, want 2", bins[9])
	}
	if Histogram(xs, 0, 0, 10) != nil || Histogram(xs, 5, 10, 0) != nil {
		t.Fatal("degenerate histogram configs must return nil")
	}
}

// Property: the median lies between min and max, Q1 <= median <= Q3, and the
// QCD lies in [-1, 1].
func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Min > s.Q1 || s.Q1 > s.Median || s.Median > s.Q3 || s.Q3 > s.Max {
			return false
		}
		if s.QCD < -1 || s.QCD > 1 {
			return false
		}
		if s.N != len(xs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson correlation is symmetric and bounded by |r| <= 1.
func TestPropertyCorrelationBounds(t *testing.T) {
	f := func(raw []uint16, shift uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v%97) + float64(shift)*float64(i%13)
		}
		r1, err1 := PearsonCorrelation(xs, ys)
		r2, err2 := PearsonCorrelation(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAgainstSort(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if Percentile(xs, 0) != sorted[0] || Percentile(xs, 100) != sorted[len(sorted)-1] {
		t.Fatal("percentile extremes disagree with sort")
	}
	// Between two equal samples the percentile is that sample exactly, not a
	// rounding of it (an input TestPropertyPercentileMonotone drew).
	dup := []float64{57, 50, 146, 50, 209, 136, 153, 230}
	if got := Percentile(dup, 5); got != 50 {
		t.Fatalf("Percentile between two samples of 50 = %v, want 50", got)
	}
}
