package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fakeState is a minimal State exercising every codec primitive.
type fakeState struct {
	u   uint64
	i   int64
	n   int
	b   bool
	raw []byte
	s   string
}

func (f *fakeState) SaveState(w *Writer) {
	w.Marker("fake")
	w.U64(f.u)
	w.I64(f.i)
	w.Int(f.n)
	w.Bool(f.b)
	w.Bytes(f.raw)
	w.String(f.s)
}

func (f *fakeState) LoadState(r *Reader) {
	r.Marker("fake")
	f.u = r.U64()
	f.i = r.I64In(-1<<40, 1<<40)
	f.n = r.Int()
	f.b = r.Bool()
	f.raw = r.Bytes(1 << 16)
	f.s = r.String(1 << 16)
}

func fakeConstruct(t *testing.T) func(string) (State, error) {
	t.Helper()
	return func(name string) (State, error) { return &fakeState{}, nil }
}

func TestCodecRoundTrip(t *testing.T) {
	want := &fakeState{u: 1<<63 + 17, i: -123456789, n: -42, b: true,
		raw: []byte{0, 1, 2, 255}, s: "nodeapp"}
	var buf bytes.Buffer
	if err := Save(&buf, "fake-pred", want); err != nil {
		t.Fatal(err)
	}
	got, name, err := Load(bytes.NewReader(buf.Bytes()), fakeConstruct(t))
	if err != nil {
		t.Fatal(err)
	}
	if name != "fake-pred" {
		t.Fatalf("name = %q, want fake-pred", name)
	}
	g := got.(*fakeState)
	if g.u != want.u || g.i != want.i || g.n != want.n || g.b != want.b ||
		!bytes.Equal(g.raw, want.raw) || g.s != want.s {
		t.Fatalf("round trip mismatch: %+v != %+v", g, want)
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, "fake", &fakeState{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xff
	if _, _, err := Load(bytes.NewReader(data), fakeConstruct(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	// Hand-build a stream with version 99: magic + uvarint(99).
	data := append([]byte(magic), 99)
	if _, _, err := Load(bytes.NewReader(data), fakeConstruct(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong version: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadRejectsEveryCorruptByte flips every byte of a valid snapshot in
// turn: each variant must either fail with ErrCorrupt or decode to the
// exact original values (a flip in a dead bit of a varint can be
// CRC-detected only; nothing may yield silently different state).
func TestLoadRejectsEveryCorruptByte(t *testing.T) {
	want := &fakeState{u: 7, i: -9, n: 11, b: true, raw: []byte{1, 2, 3}, s: "x"}
	var buf bytes.Buffer
	if err := Save(&buf, "fake", want); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		data := bytes.Clone(orig)
		data[i] ^= 0x5a
		got, _, err := Load(bytes.NewReader(data), fakeConstruct(t))
		if err == nil {
			t.Fatalf("flip at byte %d: decode succeeded with state %+v", i, got)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, "fake", &fakeState{raw: []byte{9, 8, 7}, s: "hello"}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for n := 0; n < len(orig); n++ {
		if _, _, err := Load(bytes.NewReader(orig[:n]), fakeConstruct(t)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestLoadPropagatesConstructError(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, "unknown-pred", &fakeState{}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no such predictor")
	_, name, err := Load(bytes.NewReader(buf.Bytes()), func(string) (State, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want construct error", err)
	}
	if name != "unknown-pred" {
		t.Fatalf("name = %q", name)
	}
}

// TestMarkerMismatch: the right marker decodes and the value behind it
// reads back (the positive control), and a wrong one fails with
// ErrCorrupt at the marker.
func TestMarkerMismatch(t *testing.T) {
	var w Writer
	w.Marker("alpha")
	w.U64(3)

	r := NewReader(w.buf)
	r.Marker("alpha")
	if v := r.U64(); r.Err() != nil || v != 3 {
		t.Fatalf("right marker: value %d, err %v; want 3, nil", v, r.Err())
	}

	r = NewReader(w.buf)
	r.Marker("beta")
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("marker mismatch: err = %v, want ErrCorrupt", err)
	}
}

// TestReaderBounds checks each bounded read twice over the same bytes:
// with a bound the value meets, where it must decode to what was written
// (so the failing case below cannot pass on an empty or misread buffer),
// and with a bound it breaks, where it must fail with ErrCorrupt.
func TestReaderBounds(t *testing.T) {
	encode := func(put func(w *Writer)) []byte {
		var w Writer
		put(&w)
		return w.buf
	}

	data := encode(func(w *Writer) { w.U64(1000) })
	var r *Reader
	if r := NewReader(data); r.U64Max(1000) != 1000 || r.Err() != nil {
		t.Fatalf("U64Max in bound: err = %v", r.Err())
	}
	r = NewReader(data)
	if r.U64Max(999); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("U64Max: err = %v", r.Err())
	}

	data = encode(func(w *Writer) { w.I64(-5) })
	if r := NewReader(data); r.I64In(-5, 10) != -5 || r.Err() != nil {
		t.Fatalf("I64In in bound: err = %v", r.Err())
	}
	r = NewReader(data)
	if r.I64In(0, 10); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("I64In: err = %v", r.Err())
	}

	data = encode(func(w *Writer) { w.U64(1) })
	if r := NewReader(data); !r.Bool() || r.Err() != nil {
		t.Fatalf("Bool(1): err = %v", r.Err())
	}
	data = encode(func(w *Writer) { w.U64(2) })
	if r := NewReader(data); r.U64Max(2) != 2 || r.Err() != nil {
		t.Fatalf("U64Max(2) control: err = %v", r.Err())
	}
	r = NewReader(data)
	if r.Bool(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Bool(2): err = %v", r.Err())
	}

	// A huge length prefix must fail at the cap, not allocate.
	data = encode(func(w *Writer) { w.Bytes([]byte("in bound")) })
	if r := NewReader(data); string(r.Bytes(1<<10)) != "in bound" || r.Err() != nil {
		t.Fatalf("Bytes in bound: err = %v", r.Err())
	}
	data = encode(func(w *Writer) { w.U64(1 << 40) })
	if r := NewReader(data); r.U64() != 1<<40 || r.Err() != nil {
		t.Fatalf("length prefix control: err = %v", r.Err())
	}
	r = NewReader(data)
	if r.Bytes(1 << 10); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Bytes bomb: err = %v", r.Err())
	}
}

func TestWriteFileReadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	want := &fakeState{u: 5, s: "persist"}
	if err := WriteFile(path, "fake", want); err != nil {
		t.Fatal(err)
	}
	// No temp files may linger after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "s.snap" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
	got, name, err := ReadFile(path, fakeConstruct(t))
	if err != nil {
		t.Fatal(err)
	}
	if name != "fake" || got.(*fakeState).u != 5 || got.(*fakeState).s != "persist" {
		t.Fatalf("ReadFile mismatch: name=%q state=%+v", name, got)
	}
}

func TestReadFileMissingIsNotCorrupt(t *testing.T) {
	_, _, err := ReadFile(filepath.Join(t.TempDir(), "absent.snap"), fakeConstruct(t))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err = %v, want plain os error", err)
	}
	if !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want IsNotExist", err)
	}
}

// TestWriteFileReplacesAtomically: overwriting an existing snapshot leaves
// either old or new content, and here (no crash) the new one.
func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteFile(path, "fake", &fakeState{u: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, "fake", &fakeState{u: 2}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFile(path, fakeConstruct(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.(*fakeState).u != 2 {
		t.Fatalf("u = %d, want 2", got.(*fakeState).u)
	}
}
