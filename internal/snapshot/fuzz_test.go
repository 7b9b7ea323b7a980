package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"llbpx"
	"llbpx/internal/hashutil"
	"llbpx/internal/snapshot"
)

// fuzzBranches lazily builds one deterministic branch stream shared by
// seed generation and post-restore smoke drives.
var fuzzBranches = sync.OnceValue(func() []llbpx.Branch {
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		panic(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		panic(err)
	}
	gen := llbpx.NewGenerator(prog)
	out := make([]llbpx.Branch, 4096)
	for i := range out {
		out[i], _ = gen.Next()
	}
	return out
})

// drive pushes n branches through a predictor (panics propagate to the
// fuzzer as failures).
func drive(p llbpx.Predictor, branches []llbpx.Branch, n int) {
	for i := 0; i < n && i < len(branches); i++ {
		b := branches[i]
		if b.Kind.Conditional() {
			p.Update(b, p.Predict(b.PC))
		} else {
			p.TrackUnconditional(b)
		}
	}
}

// warmSnapshot serializes a briefly trained predictor of the named
// configuration.
func warmSnapshot(tb testing.TB, name string) []byte {
	tb.Helper()
	p, err := llbpx.NewPredictorByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	drive(p, fuzzBranches(), 2048)
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, name, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode asserts the hard decode contract: arbitrary bytes
// either fail with an error or yield a predictor that is actually usable —
// never a panic, never unbounded allocation, never a silently broken
// instance.
func FuzzSnapshotDecode(f *testing.F) {
	for _, name := range []string{"tsl-8k", "llbp", "llbp-x"} {
		valid := warmSnapshot(f, name)
		f.Add(valid)
		// Corrupt variants steer the fuzzer toward interesting prefixes.
		for _, i := range []int{0, 8, 9, len(valid) / 2, len(valid) - 2} {
			mut := bytes.Clone(valid)
			mut[i] ^= 0x41
			f.Add(mut)
		}
		f.Add(valid[:len(valid)/3])
	}
	for _, blob := range aliasedFoldBlobs(f) {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("LLBPSNAP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := llbpx.LoadPredictorState(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must hand back a working predictor.
		drive(p, fuzzBranches(), 256)
	})
}

// coldFoldBlob returns a cold llbp-x snapshot, in which every history fold
// is a one-byte zero, and a function that sets the byte at an offset and
// re-checksums the copy it returns. tables is the offset of table 0's index
// fold (the 63 folds before the "tage.tables" marker run table by table:
// index, first tag, second tag); bank that of table 0's first bank fold
// (the 42 after the "tage.tagbank" marker run table by table: first,
// second).
func coldFoldBlob(tb testing.TB) (tables, bank int, set func(vals map[int]byte) []byte) {
	tb.Helper()
	p, err := llbpx.NewPredictorByName("llbp-x")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := llbpx.SavePredictorState(&buf, "llbp-x", p); err != nil {
		tb.Fatal(err)
	}
	cold := buf.Bytes()
	marker := func(name string) []byte {
		return binary.AppendUvarint(nil, uint64(uint32(hashutil.FNV1a(name))))
	}
	tables = bytes.Index(cold, marker("tage.tables")) - 63
	bank = bytes.Index(cold, marker("tage.tagbank")) + len(marker("tage.tagbank"))
	if tables < 0 || bank < len(marker("tage.tagbank")) ||
		bytes.Count(cold[tables:tables+63], []byte{0}) != 63 || bytes.Count(cold[bank:bank+42], []byte{0}) != 42 {
		tb.Fatal("cold llbp-x snapshot does not have the expected fold layout")
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	set = func(vals map[int]byte) []byte {
		b := bytes.Clone(cold)
		for off, v := range vals {
			b[off] = v
		}
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[8:len(b)-4], castagnoli))
		return b
	}
	return tables, bank, set
}

// aliasedFoldBlobs returns well-checksummed llbp-x snapshots in which a
// fold sharing its register with an earlier fold of the same table
// disagrees with it: table 0's first tag fold (tsl-64k's 10-bit index
// fold) and table 10's first bank fold (its 13-bit first tag fold).
func aliasedFoldBlobs(tb testing.TB) [][]byte {
	tables, bank, set := coldFoldBlob(tb)
	return [][]byte{set(map[int]byte{tables + 1: 1}), set(map[int]byte{bank + 2*10: 1})}
}

// TestAliasedFoldsDisagreeIsCorrupt requires a snapshot whose folds of
// equal width on one table disagree to fail as corrupt, while the same
// edits made consistently, or to a fold with a register of its own,
// decode.
func TestAliasedFoldsDisagreeIsCorrupt(t *testing.T) {
	for i, blob := range aliasedFoldBlobs(t) {
		_, _, err := llbpx.LoadPredictorState(bytes.NewReader(blob))
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "disagree") {
			t.Errorf("blob %d: err = %v, want ErrCorrupt for disagreeing folds", i, err)
		}
	}
	tables, bank, set := coldFoldBlob(t)
	for name, vals := range map[string]map[int]byte{
		"table 0 index and first tag": {tables: 1, tables + 1: 1},
		"table 0 second tag":          {tables + 2: 1},
		"table 10 tag and bank folds": {tables + 31: 1, tables + 32: 1, bank + 20: 1, bank + 21: 1},
		"table 0 bank folds":          {bank: 1, bank + 1: 1},
	} {
		p, _, err := llbpx.LoadPredictorState(bytes.NewReader(set(vals)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		drive(p, fuzzBranches(), 256)
	}
}

// TestLoadPrefixVerdictsMatchReference cuts a real llbp-x snapshot at
// every prefix through its first KB (header and first components) and
// its last 256 bytes (last components and trailer), and at every 127th
// byte across the rest, and requires Load's verdict on each to be the
// byte-at-a-time reference decoder's. Every prefix of the ~120 KB blob
// would cost minutes of quadratic decoding; the stride is prime, so it
// lands at every phase of the varint and component structure.
func TestLoadPrefixVerdictsMatchReference(t *testing.T) {
	blob := warmSnapshot(t, "llbp-x")
	const head, tail, stride = 1024, 256, 127
	var prefixes []int
	for k := 0; k <= len(blob); k++ {
		if k < head || k >= len(blob)-tail || k%stride == 0 {
			prefixes = append(prefixes, k)
		}
	}
	snapshot.CheckPrefixVerdicts(t, blob, func(name string) (snapshot.State, error) {
		p, err := llbpx.NewPredictorByName(name)
		if err != nil {
			return nil, err
		}
		return p.(snapshot.State), nil
	}, prefixes)
}

// TestDecodeKeepsNoReferenceToInput backs the recycled read buffers of
// Load and ReadFile: a predictor decoded from a blob must not alias it.
// Every byte of the input is overwritten after Decode, and the predictor
// must still save what an untouched decode of the blob saves; likewise
// after a second Load, which reuses the first Load's buffer, and a
// ReadFile. (The untouched decode is the reference, not the blob: an
// infinite-mode table re-saves its entries in a different order.)
func TestDecodeKeepsNoReferenceToInput(t *testing.T) {
	construct := func(name string) (snapshot.State, error) {
		p, err := llbpx.NewPredictorByName(name)
		if err != nil {
			return nil, err
		}
		return p.(snapshot.State), nil
	}
	decode := func(name string, blob []byte) snapshot.State {
		t.Helper()
		s, _, err := snapshot.Decode(blob, construct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	names := []string{"llbp-x", "llbp", "tsl-inf", "bullseye", "tournament"}
	blobs := make([][]byte, len(names))
	for i, name := range names {
		blobs[i] = warmSnapshot(t, name)
	}
	for i, name := range names {
		want := snapshot.Encode(name, decode(name, bytes.Clone(blobs[i])))
		in := bytes.Clone(blobs[i])
		s := decode(name, in)
		for j := range in {
			in[j] = ^in[j]
		}
		if !bytes.Equal(snapshot.Encode(name, s), want) {
			t.Fatalf("%s: re-save after overwriting Decode's input differs", name)
		}

		s, _, err := snapshot.Load(bytes.NewReader(blobs[i]), construct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "other.snap")
		other := blobs[(i+1)%len(blobs)]
		if err := os.WriteFile(path, other, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := snapshot.Load(bytes.NewReader(other), construct); err != nil {
			t.Fatal(err)
		}
		if _, _, err := snapshot.ReadFile(path, construct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshot.Encode(name, s), want) {
			t.Fatalf("%s: re-save after further loads differs", name)
		}
	}
}
