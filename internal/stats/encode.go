package stats

// Binary serialization for the persistable analysis artifacts. Every
// float64 round-trips through its IEEE-754 bits, so a decoded matrix or
// PCA model is bit-identical to the encoded one — the property the
// pipeline's resume guarantee rests on. Integrity (checksums, truncation
// detection) is the storage layer's job (internal/fcache); these decoders
// only have to reject structurally inconsistent payloads.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/kernel"
)

// The matrix wire layout is self-aligning: rows, cols and the pad length
// (u32 each) are followed by padLen zero bytes chosen by the encoder so
// the float64 block starts at a buffer offset that is a multiple of 8.
// Combined with the storage layer placing payloads at 8-aligned file
// offsets (fcache's 48-byte entry header), the decoder can usually
// reinterpret the float block in place — one kernel.AliasFloats call
// instead of a per-element byte-shuffling loop. When the block lands misaligned (a
// foreign framing layer, a sub-slice at an odd offset), the decoder
// falls back to a bulk copy; the decoded values are identical either
// way, only the sharing differs.

// matrixEncodingSize bounds the encoded size of a matrix: rows, cols,
// padLen (u32 each), up to 7 pad bytes, and the row-major float64 data.
func matrixEncodingSize(m *Matrix) int { return 12 + 7 + 8*len(m.Data) }

// matrixPad returns the pad length that 8-aligns a float block appended
// after a 12-byte matrix header written at buffer offset off.
func matrixPad(off int) int { return (8 - (off+12)%8) % 8 }

// AppendBinary appends m's encoding to buf and returns the extended
// slice, for callers composing a matrix into a larger artifact. The pad
// is computed from len(buf), so the float block is 8-aligned relative to
// the start of the composed encoding.
func (m *Matrix) AppendBinary(buf []byte) []byte {
	pad := matrixPad(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pad))
	for i := 0; i < pad; i++ {
		buf = append(buf, 0)
	}
	return kernel.AppendFloats(buf, m.Data)
}

// MarshalBinary encodes the matrix (encoding.BinaryMarshaler).
func (m *Matrix) MarshalBinary() ([]byte, error) {
	return m.AppendBinary(make([]byte, 0, matrixEncodingSize(m))), nil
}

// DecodeMatrix consumes one encoded matrix from the front of buf and
// returns it with the remaining bytes, for callers decoding composed
// artifacts. When the float block is 8-aligned in memory the returned
// matrix aliases buf (zero-copy) — callers that mutate the result while
// also reusing buf must Clone it first; the pipeline's decoded artifacts
// are read-only, so the fast path is the norm.
func DecodeMatrix(buf []byte) (*Matrix, []byte, error) {
	if len(buf) < 12 {
		return nil, nil, fmt.Errorf("stats: matrix header truncated (%d bytes)", len(buf))
	}
	rows := int(binary.LittleEndian.Uint32(buf))
	cols := int(binary.LittleEndian.Uint32(buf[4:]))
	pad := int(binary.LittleEndian.Uint32(buf[8:]))
	if pad > 7 {
		return nil, nil, fmt.Errorf("stats: matrix pad %d out of range [0,7]", pad)
	}
	if len(buf) < 12+pad {
		return nil, nil, fmt.Errorf("stats: matrix pad truncated (%d bytes)", len(buf))
	}
	body := buf[12+pad:]
	// Bound rows*cols by the bytes actually present before multiplying:
	// two hostile u32 dimensions can overflow the product (and a huge
	// honest product would be an allocation bomb), so an undersized
	// payload must be rejected without ever computing rows*cols.
	avail := len(body) / 8
	if rows < 0 || cols < 0 || (cols > 0 && rows > avail/cols) {
		return nil, nil, fmt.Errorf("stats: %dx%d matrix does not fit %d bytes", rows, cols, len(buf))
	}
	n := rows * cols
	if len(body) < 8*n {
		return nil, nil, fmt.Errorf("stats: %dx%d matrix needs %d bytes, have %d", rows, cols, 12+pad+8*n, len(buf))
	}
	m := &Matrix{Rows: rows, Cols: cols}
	if data, ok := kernel.AliasFloats(body, n); ok {
		m.Data = data
	} else {
		m.Data = make([]float64, n)
		kernel.CopyFloats(m.Data, body)
	}
	return m, body[8*n:], nil
}

// UnmarshalBinary decodes the matrix (encoding.BinaryUnmarshaler),
// rejecting trailing garbage.
func (m *Matrix) UnmarshalBinary(data []byte) error {
	dec, rest, err := DecodeMatrix(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("stats: %d trailing bytes after matrix", len(rest))
	}
	*m = *dec
	return nil
}

// appendF64s appends a length-prefixed float64 slice.
func appendF64s(buf []byte, xs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	return kernel.AppendFloats(buf, xs)
}

// decodeF64s consumes a length-prefixed float64 slice. These slices are
// small (per-column statistics, eigenvalues), so they always copy;
// zero-copy aliasing is reserved for the matrix float blocks.
func decodeF64s(buf []byte) ([]float64, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("stats: slice header truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || len(buf) < 4+8*n {
		return nil, nil, fmt.Errorf("stats: %d-element slice needs %d bytes, have %d", n, 4+8*n, len(buf))
	}
	xs := make([]float64, n)
	kernel.CopyFloats(xs, buf[4:])
	return xs, buf[4+8*n:], nil
}

// MarshalBinary encodes the fitted PCA model: components, variances,
// input statistics and total variance (encoding.BinaryMarshaler).
func (p *PCA) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, matrixEncodingSize(p.Components)+8*(len(p.Variances)+len(p.InputStats.Mean)+len(p.InputStats.Std))+32)
	buf = p.Components.AppendBinary(buf)
	buf = appendF64s(buf, p.Variances)
	buf = appendF64s(buf, p.InputStats.Mean)
	buf = appendF64s(buf, p.InputStats.Std)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.TotalVariance))
	return buf, nil
}

// UnmarshalBinary decodes a PCA model encoded by MarshalBinary
// (encoding.BinaryUnmarshaler).
func (p *PCA) UnmarshalBinary(data []byte) error {
	comp, rest, err := DecodeMatrix(data)
	if err != nil {
		return fmt.Errorf("stats: PCA components: %w", err)
	}
	variances, rest, err := decodeF64s(rest)
	if err != nil {
		return fmt.Errorf("stats: PCA variances: %w", err)
	}
	mean, rest, err := decodeF64s(rest)
	if err != nil {
		return fmt.Errorf("stats: PCA means: %w", err)
	}
	std, rest, err := decodeF64s(rest)
	if err != nil {
		return fmt.Errorf("stats: PCA stds: %w", err)
	}
	if len(rest) != 8 {
		return fmt.Errorf("stats: PCA total variance: %d trailing bytes, want 8", len(rest))
	}
	p.Components = comp
	p.Variances = variances
	p.InputStats = ColumnStats{Mean: mean, Std: std}
	p.TotalVariance = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	return nil
}
