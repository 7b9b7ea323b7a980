package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"llbpx/internal/hashutil"
)

// castagnoli is the CRC-32C polynomial table guarding every snapshot.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer encodes predictor state by appending to an in-memory buffer:
// unsigned and zigzag varints, length-prefixed byte strings, and
// component markers. Appending cannot fail, so SaveState implementations
// encode straight through; Save checksums the finished body in one pass
// and hands the whole snapshot to its destination in one Write.
type Writer struct {
	buf []byte
}

// U64 encodes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if v < 0x80 {
		w.buf = append(w.buf, byte(v))
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 encodes a zigzag signed varint.
func (w *Writer) I64(v int64) { w.U64(uint64(v<<1) ^ uint64(v>>63)) }

// U32 encodes a 32-bit unsigned value.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// Int encodes a signed int.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool encodes a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Count encodes a non-negative element count as an unsigned varint — the
// counterpart of Reader.Count (Int/I64 use zigzag and do NOT pair with it).
func (w *Writer) Count(n int) { w.U64(uint64(n)) }

// Bytes encodes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String encodes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Marker frames the start of a named component: a 32-bit hash of the name
// the Reader re-checks, so a desynchronized decode fails at the component
// boundary with a useful message instead of misinterpreting later fields.
func (w *Writer) Marker(name string) { w.U32(markerID(name)) }

func markerID(name string) uint32 { return uint32(hashutil.FNV1a(name)) }

// Reader is Writer's decoding counterpart over an in-memory byte slice,
// with a sticky-error discipline plus explicit bounds: counts and byte
// strings are read through caps so corrupted length fields fail fast
// instead of allocating unbounded memory. All decode failures wrap
// ErrCorrupt; after the first one every read returns zero values.
//
// The Reader does not checksum as it goes: Decode runs one CRC pass over
// the consumed range once the payload has decoded.
type Reader struct {
	// win is the fast window, win[pos] the next input byte. win always
	// ends in a byte >= 0x80, which U64's one-byte fast path never steps
	// over, so the fast path needs no bounds test of its own; everything
	// else goes through seek, which keeps that invariant.
	win  []byte
	pos  int
	base int    // input offset of win[0]
	in   []byte // the whole input
	err  error
	// rec, when non-nil, logs the input offset and length of every raw
	// byte run read, so a test can replay a real predictor's decode.
	rec *[]rawRun
}

// rawRun is one length-prefixed byte run as logged for replay.
type rawRun struct{ off, n int }

// stop is the window of a Reader past its last byte or failed: its one
// byte sends every U64 to the slow path.
var stop = []byte{0x80}

// NewReader returns a Reader decoding data from its start.
func NewReader(data []byte) *Reader {
	r := &Reader{in: data}
	r.seek(0)
	return r
}

// offset returns the input offset of the next byte to read.
func (r *Reader) offset() int { return r.base + r.pos }

// seek moves the cursor to input offset off and re-establishes the fast
// window: up to the last byte >= 0x80 of the rest of the input, or, when
// the rest has none, over a copy of it with a 0x80 terminator appended.
// Only a tail free of such bytes is copied, at most once per Reader.
func (r *Reader) seek(off int) {
	if off-r.base < len(r.win) {
		r.pos = off - r.base
		return
	}
	rest := r.in[off:]
	end := len(rest)
	for end > 0 && rest[end-1] < 0x80 {
		end--
	}
	if end > 0 {
		r.win = rest[:end]
	} else if len(rest) > 0 {
		r.win = append(append(make([]byte, 0, len(rest)+1), rest...), 0x80)
	} else {
		r.win = stop
	}
	r.base, r.pos = off, 0
}

// U64 decodes an unsigned varint. One-byte values, the common case in
// predictor state, take an inlined fast path.
func (r *Reader) U64() uint64 {
	if b := r.win[r.pos]; b < 0x80 {
		r.pos++
		return uint64(b)
	}
	return r.u64Slow()
}

// u64Slow decodes a multi-byte varint and reports failures. A truncated
// or overlong varint returns the bits gathered before the failure.
func (r *Reader) u64Slow() uint64 {
	if r.err != nil {
		return 0
	}
	off := r.offset()
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if off >= len(r.in) {
			r.Fail("unexpected end of data")
			return x
		}
		b := r.in[off]
		off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				r.Fail("bad varint")
				return x
			}
			r.seek(off)
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	r.Fail("bad varint")
	return x
}

// I64 decodes a zigzag signed varint.
func (r *Reader) I64() int64 {
	ux := r.U64()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// I64In decodes a signed varint and fails unless it lies in [lo, hi].
func (r *Reader) I64In(lo, hi int64) int64 {
	v := r.I64()
	if r.err == nil && (v < lo || v > hi) {
		r.Fail("value %d outside [%d, %d]", v, lo, hi)
	}
	return v
}

// U64Max decodes an unsigned varint and fails if it exceeds max.
func (r *Reader) U64Max(max uint64) uint64 {
	v := r.U64()
	if v > max && r.err == nil {
		r.Fail("value %d exceeds limit %d", v, max)
	}
	return v
}

// U32 decodes a 32-bit unsigned value.
func (r *Reader) U32() uint32 { return uint32(r.U64Max(math.MaxUint32)) }

// Int decodes a signed int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool decodes a boolean (anything but 0 or 1 is corrupt).
func (r *Reader) Bool() bool { return r.U64Max(1) == 1 }

// Count decodes an element count capped at max, guarding allocations.
func (r *Reader) Count(max int) int { return int(r.U64Max(uint64(max))) }

// take consumes a length-prefixed run of at most max bytes and returns it
// aliasing the input, or nil on failure or an empty run.
func (r *Reader) take(max int) []byte {
	n := r.Count(max)
	if r.err != nil || n == 0 {
		return nil
	}
	off := r.offset()
	if r.rec != nil {
		*r.rec = append(*r.rec, rawRun{off, n})
	}
	if len(r.in)-off < n {
		r.Fail("unexpected end of data")
		return nil
	}
	r.seek(off + n)
	return r.in[off : off+n]
}

// Bytes decodes a length-prefixed byte string of at most max bytes into a
// fresh slice.
func (r *Reader) Bytes(max int) []byte {
	b := r.take(max)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String decodes a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.take(max)) }

// Marker checks a component frame written by Writer.Marker.
func (r *Reader) Marker(name string) {
	got := r.U32()
	if r.err == nil && got != markerID(name) {
		r.Fail("component framing mismatch at %q", name)
	}
}

// Fail records a decode failure (wrapping ErrCorrupt); the first failure
// wins and all subsequent reads are no-ops.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
		r.win, r.pos = stop, 0
	}
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }
