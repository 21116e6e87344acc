package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace encoding: a compact, stream-oriented format so synthetic
// traces can be stored, exchanged and re-analyzed (the workflow MICA users
// have with PIN-generated traces). The format is:
//
//	magic "MTR1" (4 bytes)
//	per instruction:
//	  uvarint  PC
//	  byte     op class
//	  byte     dst register
//	  byte     nsrc, then nsrc source-register bytes
//	  uvarint  addr   (loads/stores only)
//	  byte     taken  (control only; 0/1)
//	  uvarint  target (control only)
//
// PCs and addresses are delta-encoded against the previous instruction's
// values (zig-zag), which makes loop-heavy streams highly compressible by
// the varint layer alone.

var traceMagic = [4]byte{'M', 'T', 'R', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Writer serializes instructions to an io.Writer.
type Writer struct {
	w        *bufio.Writer
	buf      []byte
	lastPC   uint64
	lastAddr uint64
	started  bool
	count    uint64
}

// NewWriter starts a trace stream on w (writing the magic header lazily on
// the first instruction).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, binary.MaxVarintLen64)}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(v uint64) int64  { return int64(v>>1) ^ -int64(v&1) }

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf, v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write appends one instruction to the stream. An instruction the format
// cannot represent, or that Reader would reject, is refused before
// anything is written.
func (w *Writer) Write(ins *isa.Instruction) error {
	if ins.NSrc > isa.MaxSrcRegs {
		return fmt.Errorf("trace: instruction with %d sources", ins.NSrc)
	}
	if ins.Dst >= isa.NumRegs {
		return fmt.Errorf("trace: destination register %d out of range", ins.Dst)
	}
	for _, r := range ins.Sources() {
		if r >= isa.NumRegs {
			return fmt.Errorf("trace: source register %d out of range", r)
		}
	}
	if !w.started {
		if _, err := w.w.Write(traceMagic[:]); err != nil {
			return err
		}
		w.started = true
	}
	if err := w.uvarint(zigzag(int64(ins.PC) - int64(w.lastPC))); err != nil {
		return err
	}
	w.lastPC = ins.PC
	if err := w.w.WriteByte(byte(ins.Op)); err != nil {
		return err
	}
	if err := w.w.WriteByte(ins.Dst); err != nil {
		return err
	}
	if err := w.w.WriteByte(ins.NSrc); err != nil {
		return err
	}
	for _, r := range ins.Sources() {
		if err := w.w.WriteByte(r); err != nil {
			return err
		}
	}
	switch {
	case ins.Op.IsMemRead() || ins.Op.IsMemWrite():
		if err := w.uvarint(zigzag(int64(ins.Addr) - int64(w.lastAddr))); err != nil {
			return err
		}
		w.lastAddr = ins.Addr
	case ins.Op.IsControl():
		taken := byte(0)
		if ins.Taken {
			taken = 1
		}
		if err := w.w.WriteByte(taken); err != nil {
			return err
		}
		if err := w.uvarint(ins.Target); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// Count returns how many instructions have been written.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes any buffered bytes to the underlying writer.
func (w *Writer) Flush() error {
	if !w.started {
		// An empty trace still carries the header.
		if _, err := w.w.Write(traceMagic[:]); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader decodes a trace stream produced by Writer.
type Reader struct {
	r        *bufio.Reader
	lastPC   uint64
	lastAddr uint64
	started  bool
}

// NewReader wraps r for decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next decodes the next instruction into ins. It returns io.EOF at the
// clean end of the stream and ErrBadTrace on corruption. An instruction it
// returns is well formed — a known op class, at most isa.MaxSrcRegs
// sources, every register below isa.NumRegs — so it can go straight to the
// analyzer.
func (r *Reader) Next(ins *isa.Instruction) error {
	if !r.started {
		var magic [4]byte
		if _, err := io.ReadFull(r.r, magic[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fmt.Errorf("%w: missing header", ErrBadTrace)
			}
			return err
		}
		if magic != traceMagic {
			return fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
		}
		r.started = true
	}

	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean end between instructions
		}
		return fmt.Errorf("%w: truncated pc", ErrBadTrace)
	}
	*ins = isa.Instruction{}
	r.lastPC = uint64(int64(r.lastPC) + unzig(delta))
	ins.PC = r.lastPC

	op, err := r.r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: truncated op", ErrBadTrace)
	}
	if int(op) >= isa.NumOpClasses {
		return fmt.Errorf("%w: op class %d", ErrBadTrace, op)
	}
	ins.Op = isa.OpClass(op)

	if ins.Dst, err = r.r.ReadByte(); err != nil {
		return fmt.Errorf("%w: truncated dst", ErrBadTrace)
	}
	if ins.Dst >= isa.NumRegs {
		return fmt.Errorf("%w: destination register %d", ErrBadTrace, ins.Dst)
	}
	nsrc, err := r.r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: truncated nsrc", ErrBadTrace)
	}
	if nsrc > isa.MaxSrcRegs {
		return fmt.Errorf("%w: %d sources", ErrBadTrace, nsrc)
	}
	ins.NSrc = nsrc
	for i := 0; i < int(nsrc); i++ {
		if ins.Src[i], err = r.r.ReadByte(); err != nil {
			return fmt.Errorf("%w: truncated src", ErrBadTrace)
		}
		if ins.Src[i] >= isa.NumRegs {
			return fmt.Errorf("%w: source register %d", ErrBadTrace, ins.Src[i])
		}
	}

	switch {
	case ins.Op.IsMemRead() || ins.Op.IsMemWrite():
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return fmt.Errorf("%w: truncated addr", ErrBadTrace)
		}
		r.lastAddr = uint64(int64(r.lastAddr) + unzig(d))
		ins.Addr = r.lastAddr
	case ins.Op.IsControl():
		taken, err := r.r.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: truncated taken flag", ErrBadTrace)
		}
		ins.Taken = taken != 0
		if ins.Target, err = binary.ReadUvarint(r.r); err != nil {
			return fmt.Errorf("%w: truncated target", ErrBadTrace)
		}
	}
	return nil
}
