package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refReader is the byte-at-a-time stream decoder the slice-based Reader
// replaced, kept as the reference the Reader must agree with: every byte
// comes through io.ReadFull and a one-byte CRC update, varints through
// binary.ReadUvarint.
type refReader struct {
	r   io.Reader
	crc uint32
	err error
	one [1]byte
}

func (r *refReader) ReadByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	if _, err := io.ReadFull(r.r, r.one[:]); err != nil {
		r.Fail("unexpected end of data")
		return 0, r.err
	}
	r.crc = crc32.Update(r.crc, castagnoli, r.one[:])
	return r.one[0], nil
}

func (r *refReader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r)
	if err != nil && r.err == nil {
		r.Fail("bad varint")
	}
	return v
}

func (r *refReader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r)
	if err != nil && r.err == nil {
		r.Fail("bad varint")
	}
	return v
}

func (r *refReader) I64In(lo, hi int64) int64 {
	v := r.I64()
	if r.err == nil && (v < lo || v > hi) {
		r.Fail("value %d outside [%d, %d]", v, lo, hi)
	}
	return v
}

func (r *refReader) U64Max(max uint64) uint64 {
	v := r.U64()
	if r.err == nil && v > max {
		r.Fail("value %d exceeds limit %d", v, max)
	}
	return v
}

func (r *refReader) U32() uint32       { return uint32(r.U64Max(math.MaxUint32)) }
func (r *refReader) Bool() bool        { return r.U64Max(1) == 1 }
func (r *refReader) Count(max int) int { return int(r.U64Max(uint64(max))) }

func (r *refReader) Bytes(max int) []byte {
	n := r.Count(max)
	if r.err != nil || n == 0 {
		return nil
	}
	return r.raw(n)
}

// raw is the body of Bytes: n bytes straight off the stream.
func (r *refReader) raw(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.Fail("unexpected end of data")
		return nil
	}
	r.crc = crc32.Update(r.crc, castagnoli, b)
	return b
}

func (r *refReader) String(max int) string { return string(r.Bytes(max)) }

func (r *refReader) Marker(name string) {
	got := r.U32()
	if r.err == nil && got != markerID(name) {
		r.Fail("component framing mismatch at %q", name)
	}
}

func (r *refReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *refReader) Err() error { return r.err }

// refLoad is the streaming Load the slice-based one replaced, over data,
// with the construct-and-LoadState step replaced by payload. It returns
// the verdict.
func refLoad(data []byte, payload func(r *refReader)) error {
	br := bufio.NewReader(bytes.NewReader(data))
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || string(m[:]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	sr := &refReader{r: br}
	if v := sr.U64(); sr.Err() == nil && v != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	sr.String(maxNameLen)
	if err := sr.Err(); err != nil {
		return err
	}
	payload(sr)
	return refTrailer(br, sr)
}

// refTrailer is the streaming Load's checksum step.
func refTrailer(br io.Reader, sr *refReader) error {
	if err := sr.Err(); err != nil {
		return err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != sr.crc {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}

// decoder is the read surface both readers share.
type decoder interface {
	U64() uint64
	I64() int64
	I64In(lo, hi int64) int64
	U64Max(max uint64) uint64
	Bool() bool
	Count(max int) int
	Bytes(max int) []byte
	String(max int) string
	Marker(name string)
	Err() error
}

// codecOp is one primitive written by a Writer and read back under a
// bound that may not hold, so both the in-bound and the failing verdicts
// are exercised.
type codecOp struct {
	kind byte
	u    uint64
	i    int64
	b    []byte
	max  int // read-side bound: Count, Bytes, String, U64Max, I64In (±max)
	name string
	want string // marker the read side expects
}

const numOpKinds = 9

var markerNames = []string{"tage", "llbp.rcr", "llbpx.ctt", "serve.session"}

func (op codecOp) write(w *Writer) {
	switch op.kind {
	case 0, 6:
		w.U64(op.u)
	case 1, 7:
		w.I64(op.i)
	case 2:
		w.U64(op.u) // 2 is a corrupt boolean
	case 3:
		w.Count(int(op.u))
	case 4:
		w.Bytes(op.b)
	case 5:
		w.Marker(op.name)
	case 8:
		w.String(string(op.b))
	}
}

// read performs op on d and returns what it decoded.
func (op codecOp) read(d decoder) any {
	switch op.kind {
	case 0:
		return d.U64()
	case 1:
		return d.I64()
	case 2:
		return d.Bool()
	case 3:
		return d.Count(op.max)
	case 4:
		return string(d.Bytes(op.max))
	case 5:
		d.Marker(op.want)
		return nil
	case 6:
		return d.U64Max(uint64(op.max))
	case 7:
		return d.I64In(-int64(op.max), int64(op.max))
	default:
		return d.String(op.max)
	}
}

// opsFromBytes builds an op sequence from an arbitrary program: two bytes
// per op, the first picking the kind, the second its value and bound.
func opsFromBytes(prog []byte) []codecOp {
	var ops []codecOp
	for i := 0; i+1 < len(prog); i += 2 {
		k, p := prog[i]%numOpKinds, prog[i+1]
		v := uint64(p) * uint64(p) * uint64(p) << (p % 5 * 8)
		op := codecOp{kind: k, u: v, i: int64(v) * (1 - 2*int64(p&1)), max: int(p) * 3,
			name: markerNames[p%4], want: markerNames[p/4%4]}
		if k == 2 {
			op.u = uint64(p % 3)
		}
		if k == 4 || k == 8 {
			op.b = bytes.Repeat([]byte{p}, int(p%19))
		}
		ops = append(ops, op)
	}
	return ops
}

// randomOps draws a sequence mixing one-byte and multi-byte values,
// extremes, and bounds that mostly hold.
func randomOps(rng *rand.Rand) []codecOp {
	ops := make([]codecOp, 1+rng.IntN(24))
	for j := range ops {
		op := codecOp{kind: byte(rng.IntN(numOpKinds)), name: markerNames[rng.IntN(4)]}
		switch rng.IntN(4) {
		case 0:
			op.u = uint64(rng.IntN(0x80))
		case 1:
			op.u = uint64(rng.IntN(1 << 21))
		case 2:
			op.u = rng.Uint64() >> rng.IntN(64)
		default:
			op.u = []uint64{0, 1, 0x7f, 0x80, math.MaxUint32, math.MaxUint64}[rng.IntN(6)]
		}
		op.i = int64(op.u)
		if op.kind == 2 {
			op.u = uint64(rng.IntN(3))
		}
		op.b = make([]byte, rng.IntN(40))
		for k := range op.b {
			op.b[k] = byte(rng.Uint32())
		}
		op.max = int(min(op.u, 1<<30)) + rng.IntN(3) - 1
		if op.kind == 4 || op.kind == 8 {
			op.max = max(0, len(op.b)+rng.IntN(3)-1)
		}
		op.want = op.name
		if rng.IntN(8) == 0 {
			op.want = markerNames[rng.IntN(4)]
		}
		ops[j] = op
	}
	return ops
}

// mutate truncates, flips, extends or keeps data.
func mutate(rng *rand.Rand, data []byte) []byte {
	data = bytes.Clone(data)
	switch rng.IntN(4) {
	case 0:
		return data[:rng.IntN(len(data)+1)]
	case 1:
		for n := 1 + rng.IntN(3); n > 0 && len(data) > 0; n-- {
			data[rng.IntN(len(data))] ^= byte(1 + rng.IntN(255))
		}
	case 2:
		for n := rng.IntN(12); n > 0; n-- {
			data = append(data, byte(rng.Uint32()))
		}
	}
	return data
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkReaders reads ops from data with both readers and reports the
// first call where the values or the verdicts part.
func checkReaders(t *testing.T, ops []codecOp, data []byte) {
	t.Helper()
	r := NewReader(data)
	ref := &refReader{r: bufio.NewReader(bytes.NewReader(data))}
	for j, op := range ops {
		got, want := op.read(r), op.read(ref)
		if got != want || !sameErr(r.Err(), ref.Err()) {
			t.Fatalf("data %x, call %d (kind %d): got %v, %v; reference %v, %v",
				data, j, op.kind, got, r.Err(), want, ref.Err())
		}
	}
}

// opsState is a State whose payload is an op sequence.
type opsState struct{ ops []codecOp }

func (s *opsState) SaveState(w *Writer) {
	for _, op := range s.ops {
		op.write(w)
	}
}

func (s *opsState) LoadState(r *Reader) {
	for _, op := range s.ops {
		op.read(r)
	}
}

// checkLoad compares Load's verdict on data with the reference Load's.
func checkLoad(t *testing.T, ops []codecOp, data []byte) {
	t.Helper()
	_, _, got := Load(bytes.NewReader(data), func(string) (State, error) { return &opsState{ops}, nil })
	want := refLoad(data, func(r *refReader) {
		for _, op := range ops {
			op.read(r)
		}
	})
	if !sameErr(got, want) {
		t.Fatalf("data %x: Load verdict %v, reference %v", data, got, want)
	}
}

// TestReaderMatchesReference: random op sequences, written by Writer and
// then truncated, flipped or extended, read back the same values with the
// same verdict at the same call through Reader and through the reference
// stream reader; as complete snapshots, Load and the reference Load agree.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for trial := 0; trial < 4000; trial++ {
		ops := randomOps(rng)
		var w Writer
		(&opsState{ops}).SaveState(&w)
		checkReaders(t, ops, mutate(rng, w.buf))

		blob := Encode("ops", &opsState{ops})
		checkLoad(t, ops, mutate(rng, blob))
	}
}

// FuzzCodecVsReference drives both readers, and both Loads, with an op
// program and payload taken from the fuzzer's bytes: the first byte sizes
// the program, the rest is the payload.
func FuzzCodecVsReference(f *testing.F) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 16; i++ {
		prog := make([]byte, 2*(1+rng.IntN(12)))
		for k := range prog {
			prog[k] = byte(rng.Uint32())
		}
		ops := opsFromBytes(prog)
		var w Writer
		(&opsState{ops}).SaveState(&w)
		f.Add(append(append([]byte{byte(len(prog))}, prog...), w.buf...))
		blob := Encode("ops", &opsState{ops})
		f.Add(append(append([]byte{byte(len(prog))}, prog...), blob...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := min(int(in[0]), len(in)-1)
		ops, data := opsFromBytes(in[1:1+n]), in[1+n:]
		checkReaders(t, ops, data)
		checkLoad(t, ops, data)
	})
}

// CheckPrefixVerdicts requires Load to reach the reference decoder's
// verdict on each of the given prefixes of blob, a valid snapshot whose
// payload construct decodes. The reference replays the reads the real
// decode made: it is resumed at the read each prefix cuts, from the
// stream state it had there, which is exactly where a streaming decoder
// run from the start would be.
func CheckPrefixVerdicts(t *testing.T, blob []byte, construct func(string) (State, error), prefixes []int) {
	t.Helper()
	// Decode the whole blob, logging raw runs to split the body into reads.
	var runs []rawRun
	r := NewReader(blob[len(magic):])
	r.rec = &runs
	r.U64()
	st, err := construct(r.String(maxNameLen))
	if err != nil {
		t.Fatal(err)
	}
	st.LoadState(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	body := blob[len(magic) : len(magic)+r.offset()]

	// reads are the body's primitive reads in order.
	type read struct {
		start, n int
		raw      bool
		crc      uint32 // the reference's running CRC before the read
	}
	var reads []read
	var crc uint32
	for off := 0; off < len(body); {
		rd := read{start: off, crc: crc}
		if len(runs) > 0 && runs[0].off == off {
			rd.raw, rd.n = true, runs[0].n
			runs = runs[1:]
		} else {
			for rd.n = 1; body[off+rd.n-1] >= 0x80; rd.n++ {
			}
		}
		crc = crc32.Update(crc, castagnoli, body[off:off+rd.n])
		reads = append(reads, rd)
		off += rd.n
	}

	for _, k := range prefixes {
		prefix := blob[:k]
		_, _, got := Load(bytes.NewReader(prefix), construct)

		var want error
		if k < len(magic) {
			want = refLoad(prefix, nil) // fails at the magic
		} else {
			// Resume at the first read that does not complete inside the
			// prefix (or after the last read).
			cut := k - len(magic)
			j := sort.Search(len(reads), func(i int) bool { return reads[i].start+reads[i].n > cut })
			start, rcrc := len(body), crc
			if j < len(reads) {
				start, rcrc = reads[j].start, reads[j].crc
			}
			br := bufio.NewReader(bytes.NewReader(prefix[len(magic)+start:]))
			ref := &refReader{r: br, crc: rcrc}
			for _, rd := range reads[j:] {
				if rd.raw {
					if ref.Err() == nil {
						ref.raw(rd.n)
					}
				} else {
					ref.U64()
				}
			}
			want = refTrailer(br, ref)
		}
		if !sameErr(got, want) {
			t.Fatalf("prefix of %d/%d bytes: Load verdict %v, reference %v", k, len(blob), got, want)
		}
	}
}
