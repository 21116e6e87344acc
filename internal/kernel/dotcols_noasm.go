//go:build !amd64

package kernel

func dotCols(x, ct, out []float64, stride, k int) {
	dotColsGeneric(x, ct, out, stride, k)
}

func min2G(norms, dots []float64) (float64, float64) {
	return min2GGeneric(norms, dots)
}
