//go:build amd64

package kernel

//go:noescape
func rotateAVX2(x, y *float64, n int, c, s float64)

func rotate(x, y []float64, c, s float64) {
	if !haveAVX2 || len(x) == 0 {
		rotateGeneric(x, y, c, s)
		return
	}
	rotateAVX2(&x[0], &y[0], len(x), c, s)
}

//go:noescape
func distanceRowAVX2(xi, pj *float64, stride, k, m int, out *float64)

func distanceRow(ct []float64, k, n, i int, out []float64) {
	m := len(out)
	if !haveAVX2 || k == 0 || m < 4 {
		distanceRowGeneric(ct, k, n, i, i+1, n, out)
		return
	}
	distanceRowAVX2(&ct[i], &ct[i+1], n, k, m&^3, &out[0])
	if m&3 != 0 {
		// The last four partners, overlapping partners already done:
		// each is recomputed to the bits it already holds.
		distanceRowAVX2(&ct[i], &ct[n-4], n, k, 4, &out[m-4])
	}
}
