package topo

import (
	"math/rand"
	"testing"
)

// countingSource counts the values a Rand takes from its source.
type countingSource struct {
	rand.Source
	n int
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

// TestDrawMatchesIntn pins the division-free draw to (*rand.Rand).Intn: over
// eight seeds, for every n in 1..4096, every power of two and its neighbours
// up to 2^31-1, and n = 2^30+1, where Intn rejects about half of the source's
// values, draw returns what Intn returns and takes as many source values.
func TestDrawMatchesIntn(t *testing.T) {
	var ns []int
	for n := 1; n <= 4096; n++ {
		ns = append(ns, n)
	}
	for p := 1 << 12; p <= 1<<30; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	ns = append(ns, 1<<31-1, 1<<30+1)
	rejected := 0
	for seed := int64(1); seed <= 8; seed++ {
		gotSrc := &countingSource{Source: rand.NewSource(seed)}
		wantSrc := &countingSource{Source: rand.NewSource(seed)}
		got, want := rand.New(gotSrc), rand.New(wantSrc)
		for _, n := range ns {
			d := newDraw(n)
			draws := 4
			if n == 1<<30+1 {
				draws = 256
			}
			for range draws {
				before := wantSrc.n
				if g, w := d.from(got), want.Intn(n); g != w {
					t.Fatalf("seed %d, n %d: draw %d, Intn %d", seed, n, g, w)
				}
				if gotSrc.n != wantSrc.n {
					t.Fatalf("seed %d, n %d: draw took %d source values in all, Intn %d", seed, n, gotSrc.n, wantSrc.n)
				}
				if n == 1<<30+1 {
					rejected += wantSrc.n - before - 1
				}
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("seed %d: the sources ended at different positions", seed)
		}
	}
	if rejected < 8*256/4 {
		t.Fatalf("n = 2^30+1 rejected %d source values over %d draws, want about half", rejected, 8*256)
	}
}
