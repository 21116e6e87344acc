//go:build amd64

package kernel

// haveAVX2 gates the assembly column kernel. The fallback produces
// bit-identical results (see the determinism contract in dotcols.go),
// so the gate affects speed only.
var haveAVX2 = detectAVX2()

// detectAVX2 checks CPU support for AVX2 and that the OS has enabled
// saving the YMM register state (OSXSAVE + XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func dotColsAVX2(x *float64, d int, ct *float64, stride, k int, out *float64)

func dotCols(x, ct, out []float64, stride, k int) {
	if !haveAVX2 || len(x) == 0 || k < 4 {
		dotColsGeneric(x, ct, out, stride, k)
		return
	}
	dotColsAVX2(&x[0], len(x), &ct[0], stride, k, &out[0])
	// Scalar tail for the last k%4 columns, same serial-j order.
	for c := k &^ 3; c < k; c++ {
		var s float64
		for j, xj := range x {
			s += float64(xj * ct[j*stride+c])
		}
		out[c] = s
	}
}

//go:noescape
func min2GAVX2(norms, dots *float64, n int) (m1, m2 float64)

func min2G(norms, dots []float64) (float64, float64) {
	n4 := len(norms) &^ 3
	if !haveAVX2 || n4 == 0 {
		return min2GGeneric(norms, dots)
	}
	a1, a2 := min2GAVX2(&norms[0], &dots[0], n4)
	if n4 == len(norms) {
		return a1, a2
	}
	b1, b2 := min2GGeneric(norms[n4:], dots[n4:])
	return min(a1, b1), min(a2, b2, max(a1, b1))
}
