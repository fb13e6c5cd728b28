package comp

import (
	"math"
	"math/rand"
	"testing"
)

// TestFloat32FoldMatchesRounded: foldSum's native float32 fold of
// rounded products into a 4-byte float accumulator equals, bit for bit,
// the float64 loop that rounds every partial sum through float32 (the
// dispatch loop's rounded add). The columns hold what loads of 4-byte
// cells give, binary32 values, and the accumulator starts at one. The
// inputs cover NaN of either sign and several payloads (quiet and
// signalling) in either operand and in the accumulator, ±Inf, ±0,
// binary32 subnormals, products that overflow binary32 mid-strip, and a
// random sweep over every bit pattern.
//
// A NaN with one NaN operand is that operand's, quieted, in both loops.
// Where two NaNs meet in one product or add, IEEE 754 leaves which one
// the result carries to the implementation: amd64 returns the first
// operand, and Go's register allocator orders the operands per build
// (a -race build flips the fold's add). The guest cannot tell NaNs
// apart — printf prints NaN, every compare is false, and a cast gives
// one value —, so there the fold must return a NaN, and any one.
func TestFloat32FoldMatchesRounded(t *testing.T) {
	nan := func(sign, payload uint32) float32 {
		return math.Float32frombits(sign<<31 | 0x7f800000 | payload)
	}
	specials := []float32{
		nan(0, 0x400000), nan(1, 0x400000), nan(0, 0x400001), nan(1, 0x7fffff),
		nan(0, 0x000001), nan(1, 0x2aaaaa), // signalling payloads
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-127, -0x1.8p-140,
		0x1p-75, // its square underflows to a subnormal product
		math.MaxFloat32, -math.MaxFloat32, 0x1p64, -0x1p64, 0x1.fffffep100,
		1, -1, 0.1, 1.0 / 3, -2.5, 16777217 - 1,
	}
	col := func(vs []float32) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = float64(v)
		}
		return out
	}
	n := 0
	check := func(acc float32, a, b []float32) {
		t.Helper()
		n++
		ca, cb := col(a), col(b)
		got := foldSum(float64(acc), ca, cb, true, true, true)
		want, twoNaNs := roundedFold(float64(acc), ca, cb)
		if g := math.Float64bits(got); g != math.Float64bits(want) && !(twoNaNs && math.IsNaN(got)) {
			t.Fatalf("acc %x, a %x, b %x: fold %x, rounded loop %x",
				math.Float32bits(acc), bitsOf(a), bitsOf(b), g, math.Float64bits(want))
		}
	}
	// Every accumulator, operand and operand pair of one element.
	for _, acc := range specials {
		for _, x := range specials {
			for _, y := range specials {
				check(acc, []float32{x}, []float32{y})
			}
		}
	}
	// Two NaN terms in a row, and a NaN term meeting a NaN accumulator.
	for _, p := range specials[:6] {
		for _, q := range specials[:6] {
			check(p, []float32{q, 1}, []float32{1, p})
			check(1, []float32{p, q}, []float32{1, 1})
		}
	}
	// Products near binary32's top overflow mid-strip: the sum reaches
	// +Inf and, after a negative overflow, NaN.
	big := make([]float32, 200)
	one := make([]float32, 200)
	for i := range big {
		big[i], one[i] = 0x1.fffffep126, 1
		if i == 150 {
			big[i] = -math.MaxFloat32
			one[i] = 2
		}
	}
	check(0, big, one)
	check(-math.MaxFloat32, big[:3], one[:3])
	// A random sweep: strips of up to three strip lengths over any bit
	// pattern, and over specials mixed with ordinary values.
	r := rand.New(rand.NewSource(48))
	pick := func() float32 {
		switch r.Intn(4) {
		case 0:
			return math.Float32frombits(r.Uint32())
		case 1:
			return specials[r.Intn(len(specials))]
		default:
			return float32(r.NormFloat64() * math.Pow(2, float64(r.Intn(80)-40)))
		}
	}
	for i := 0; i < 3000; i++ {
		k := r.Intn(3*stripLen + 1)
		a, b := make([]float32, k), make([]float32, k)
		for j := range a {
			a[j], b[j] = pick(), pick()
		}
		check(pick(), a, b)
	}
	t.Logf("%d folds compared", n)
}

// roundedFold is the float64 loop for rounded products into a 4-byte
// accumulator: every partial sum rounds through float32. twoNaNs
// reports whether two NaNs met in one of its products or adds.
func roundedFold(acc float64, a, b []float64) (sum float64, twoNaNs bool) {
	for i, v := range a {
		t := float64(float32(v * b[i]))
		twoNaNs = twoNaNs || math.IsNaN(v) && math.IsNaN(b[i]) || math.IsNaN(acc) && math.IsNaN(t)
		acc = float64(float32(acc + t))
	}
	return acc, twoNaNs
}

func bitsOf(vs []float32) []uint32 {
	out := make([]uint32, len(vs))
	for i, v := range vs {
		out[i] = math.Float32bits(v)
	}
	return out
}
