//go:build !amd64

package kernel

func rotate(x, y []float64, c, s float64) {
	rotateGeneric(x, y, c, s)
}

func distanceRow(ct []float64, k, n, i int, out []float64) {
	distanceRowGeneric(ct, k, n, i, i+1, n, out)
}
