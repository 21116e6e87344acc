package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// specialVec is randVec with about a third of its values replaced by
// the inputs whose rounding and propagation a lane kernel could get
// wrong: signed zeros, subnormals, infinities and NaN.
func specialVec(rng *rand.Rand, n int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	v := randVec(rng, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// sameBits reports whether a and b hold the same bits, except that any
// NaN matches any NaN: which NaN an operation on two NaN operands
// returns depends on their order, and the compiler orders the operands
// of a commutative operation freely (differently under -race).
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// Rotate (assembly where available) must equal the generic rotation bit
// for bit at every length, so every vector block and scalar tail, on
// finite and special inputs and rotation parameters.
func TestRotateBitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	params := [][2]float64{{0.8, 0.6}, {1, 0}, {0, 1}, {math.Copysign(0, -1), -1}, {5e-324, 1e308}, {math.Inf(1), 0.5}, {math.NaN(), 0.25}}
	for n := 0; n <= 13; n++ {
		for trial := 0; trial < 40; trial++ {
			c, s := rng.NormFloat64(), rng.NormFloat64()
			if trial < len(params) {
				c, s = params[trial][0], params[trial][1]
			}
			x, y := specialVec(rng, n), specialVec(rng, n)
			if trial%2 == 0 {
				x, y = randVec(rng, n), randVec(rng, n)
			}
			gx, gy := append([]float64(nil), x...), append([]float64(nil), y...)
			Rotate(x, y, c, s)
			rotateGeneric(gx, gy, c, s)
			if !sameBits(x, gx) || !sameBits(y, gy) {
				t.Fatalf("n=%d c=%v s=%v: Rotate %v %v, generic %v %v", n, c, s, x, y, gx, gy)
			}
		}
	}
}

// DistanceRow (assembly where available) must equal the generic pair
// loop bit for bit for every coordinate count (each tail), every
// partner count up to two vector groups plus a tail, and every row
// position, on finite and special inputs; and it must equal Distance of
// the two points' rows.
func TestDistanceRowBitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for k := 0; k <= 13; k++ {
		for partners := 0; partners <= 9; partners++ {
			for _, i := range []int{0, 1, 5} {
				n := i + 1 + partners
				for trial := 0; trial < 6; trial++ {
					ct := randVec(rng, k*n)
					if trial%2 == 1 {
						ct = specialVec(rng, k*n)
					}
					got := make([]float64, partners+1)
					want := make([]float64, partners+1)
					got[partners], want[partners] = 7, 7 // past the row: untouched
					DistanceRow(ct, k, n, i, got)
					distanceRowGeneric(ct, k, n, i, i+1, n, want)
					if !sameBits(got, want) {
						t.Fatalf("k=%d n=%d i=%d: DistanceRow %v, generic %v", k, n, i, got, want)
					}
					a, b := make([]float64, k), make([]float64, k)
					for j := i + 1; j < n; j++ {
						for c := 0; c < k; c++ {
							a[c], b[c] = ct[c*n+i], ct[c*n+j]
						}
						if d := Distance(a, b); !sameBits([]float64{d}, got[j-i-1:j-i]) {
							t.Fatalf("k=%d n=%d pair (%d,%d): DistanceRow %v, Distance %v", k, n, i, j, got[j-i-1], d)
						}
					}
				}
			}
		}
	}
}

func BenchmarkRotate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, 12), randVec(rng, 12)
	for i := 0; i < b.N; i++ {
		Rotate(x, y, 0.8, 0.6)
	}
}

func BenchmarkDistanceRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const k, n = 3, 100
	ct := randVec(rng, k*n)
	out := make([]float64, n-1)
	for i := 0; i < b.N; i++ {
		DistanceRow(ct, k, n, 0, out)
	}
}
