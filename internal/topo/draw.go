package topo

import (
	"math/bits"
	"math/rand"
)

// draw replays (*rand.Rand).Intn(n) for one fixed n in [1, 2^31-1] without a
// division. Intn(n) takes a 31-bit value v from the source, rejects v above
// 2^31-1-(2^31 mod n) and returns v mod n; draw precomputes that rejection
// threshold and computes the remainder by multiplication, as in Lemire, Kaser
// and Kurz, "Faster Remainder by Direct Computation" (2019): with
// m = ⌈2^64/n⌉, v mod n is the high word of (m·v mod 2^64)·n, exactly for
// every 32-bit v and n. Powers of two need no special case: their threshold
// rejects nothing and the remainder is the mask Intn applies. So a draw
// consumes the same source values as Intn and returns the same result.
type draw struct {
	n   uint32
	max int32  // the largest value Int31n accepts
	m   uint64 // ⌈2^64/n⌉ mod 2^64 (0 for n = 1, where every remainder is 0)
}

func newDraw(n int) draw {
	if n < 1 || n > 1<<31-1 {
		panic("topo: draw range out of [1, 2^31-1]")
	}
	return draw{
		n:   uint32(n),
		max: int32(1<<31 - 1 - (1<<31)%uint32(n)),
		m:   ^uint64(0)/uint64(n) + 1,
	}
}

// from returns rng.Intn(n), advancing rng exactly as Intn would.
func (d draw) from(rng *rand.Rand) int {
	v := rng.Int31()
	for v > d.max {
		v = rng.Int31()
	}
	hi, _ := bits.Mul64(d.m*uint64(v), uint64(d.n))
	return int(hi)
}
