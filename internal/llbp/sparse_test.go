package llbp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"llbpx/internal/patternpool"
	"llbpx/internal/snapshot"
	"llbpx/internal/tage"
)

// dirOp is one step of a directory script: insert cid, allocate a
// pattern in its set and train it, then probe another context.
type dirOp struct {
	cid, probe uint64
	tag        uint32
	lenIdx     int
	taken      bool
	train      int
}

// sparseOps returns n deterministic steps over the given rows (each
// below cfg's row count). Each row sees up to twelve distinct contexts,
// more than the default associativity of 7, so full rows evict.
func sparseOps(cfg *Config, rows []uint64, seed uint64, n int) []dirOp {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	cidOf := func(v uint64) uint64 { return rows[v%uint64(len(rows))] | (v>>8)%12<<16 }
	ops := make([]dirOp, n)
	for i := range ops {
		ops[i] = dirOp{
			cid:    cidOf(next()),
			probe:  cidOf(next()),
			tag:    uint32(next()) & (1<<cfg.TagBits - 1),
			lenIdx: int(next() % tage.NumTables),
			taken:  next()&1 == 1,
			train:  int(next() % 6),
		}
	}
	return ops
}

// runOps applies ops to d and returns a transcript of every outcome the
// directory reports.
func runOps(d *ContextDir, ops []dirOp) []string {
	var out []string
	for _, op := range ops {
		s, victim, evicted := d.Insert(op.cid)
		s.Allocate(op.tag, op.lenIdx, op.taken, int(op.tag%4), 4)
		if p := s.Lookup(op.tag, op.lenIdx); p != nil {
			for range op.train {
				p.CtrUpdate(op.taken)
			}
		}
		line := fmt.Sprintf("insert %#x evicted=%v", op.cid, evicted)
		if evicted {
			line += fmt.Sprintf(" victim=%#x", victim)
		}
		if p := d.Lookup(op.probe); p != nil {
			line += fmt.Sprintf(" probe %#x size=%d confident=%d", p.CID, p.Size(), p.ConfidentCount())
		}
		out = append(out, line)
	}
	return out
}

// dirState renders what the directory exposes: its live count, every
// set ForEach visits in order with its patterns, and its eviction count.
func dirState(d *ContextDir) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live=%d evicted=%d\n", d.Live(), d.Evicted())
	d.ForEach(func(s *PatternSet) {
		fmt.Fprintf(&b, "%#x:", s.CID)
		s.Patterns(func(p *Pattern) { fmt.Fprintf(&b, " %d/%d/%d", p.Tag, p.LenIdx, p.Ctr) })
		b.WriteByte('\n')
	})
	return b.String()
}

func encodeDir(d *ContextDir) []byte { return snapshot.Encode("cd", d) }

// decodeInto loads a directory snapshot into d.
func decodeInto(t *testing.T, d *ContextDir, blob []byte) {
	t.Helper()
	if _, _, err := snapshot.Decode(blob, func(string) (snapshot.State, error) { return d, nil }); err != nil {
		t.Fatalf("decode directory snapshot: %v", err)
	}
}

// sameDir fails unless got reports exactly what want does: the script
// transcripts, ForEach/Live state, and SaveState bytes.
func sameDir(t *testing.T, what string, got, want *ContextDir, gotLog, wantLog []string) {
	t.Helper()
	for i := range wantLog {
		if i >= len(gotLog) || gotLog[i] != wantLog[i] {
			g := "<missing>"
			if i < len(gotLog) {
				g = gotLog[i]
			}
			t.Fatalf("%s: step %d diverged:\n got %s\nwant %s", what, i, g, wantLog[i])
		}
	}
	if g, w := dirState(got), dirState(want); g != w {
		t.Fatalf("%s: directory state diverged:\n got %s\nwant %s", what, g, w)
	}
	if !bytes.Equal(encodeDir(got), encodeDir(want)) {
		t.Fatalf("%s: SaveState bytes differ", what)
	}
}

// nominalBytes is the full geometry's size, computed from the type sizes
// rather than the directory's own helpers.
func nominalBytes(cfg *Config, numSets int) int64 {
	n := int64(cfg.NumContexts)
	return n*patternSetBytes + int64(numSets)*rowLenBytes + n*int64(cfg.PatternsPerSet)*patternBytes
}

func TestContextDirMaterializesTouchedRows(t *testing.T) {
	cfg := Default()
	pool := patternpool.New(patternpool.Config{})
	ns := pool.Attach(patternpool.Key{Tenant: "t", CID: "sparse"}, "")
	d := NewContextDir(&cfg)
	d.AttachPool(ns)
	if d.numSets != 2048 || d.assoc != 7 || d.chunkShift != 5 {
		t.Fatalf("default geometry = %d rows x %d, chunk shift %d; want 2048 x 7, 5", d.numSets, d.assoc, d.chunkShift)
	}
	nominal := nominalBytes(&cfg, d.numSets)
	perRow := int64(d.assoc) * (patternSetBytes + int64(cfg.PatternsPerSet)*patternBytes)
	index := 2 * int64(d.numSets) * rowLenBytes

	if d.StoreBytes() != 0 || d.materializedBytes() != 0 || ns.Bytes() != 0 {
		t.Fatalf("before any insert: charged %d, real %d", d.StoreBytes(), d.materializedBytes())
	}
	for k := 1; k <= 70; k++ {
		// Three contexts per row, rows spread over the whole directory.
		row := uint64(k*613) & d.mask
		for j := uint64(0); j < 3; j++ {
			d.Insert(row | j<<20)
		}
		chunks := int64(k+31) / 32
		if got, want := d.materializedBytes(), index+chunks*32*perRow; got != want {
			t.Fatalf("after %d rows: %d real bytes, want %d (%d chunks)", k, got, want, chunks)
		}
		if d.StoreBytes() != nominal || ns.Bytes() != nominal {
			t.Fatalf("after %d rows: charged %d (namespace %d), want the nominal %d", k, d.StoreBytes(), ns.Bytes(), nominal)
		}
	}
	if d.Live() != 3*70 {
		t.Fatalf("Live = %d, want %d", d.Live(), 3*70)
	}
	if real := d.materializedBytes(); real*10 > nominal {
		t.Fatalf("70 of 2048 rows hold %d bytes, over a tenth of the nominal %d", real, nominal)
	}

	// A private directory reports the same nominal size.
	p := NewContextDir(&cfg)
	p.Insert(1)
	if p.StoreBytes() != nominal {
		t.Fatalf("private StoreBytes = %d, want %d", p.StoreBytes(), nominal)
	}

	d.Release()
	if ns.Bytes() != 0 || d.StoreBytes() != 0 || d.Live() != 0 {
		t.Fatalf("after Release: namespace %d, StoreBytes %d, live %d", ns.Bytes(), d.StoreBytes(), d.Live())
	}
	if got, want := pool.ArenaBytes(), index+3*32*perRow; got != want {
		t.Fatalf("arena holds %d bytes after Release, want the real %d", got, want)
	}
}

// TestContextDirSparseEquivalence runs one script on a fresh private
// directory and on directories whose storage has a history — reused
// after a Release, drawn from a bundle another namespace released to
// the arena, and reloaded from a snapshot — and demands identical
// outcomes. Under -tags slowcheck the recycled sets carry the previous
// namespace's provenance stamps, so any read of one panics.
func TestContextDirSparseEquivalence(t *testing.T) {
	cfg := Default()
	rows := []uint64{0, 1, 7, 64, 65, 100, 511, 1024, 1500, 2047}
	ops := sparseOps(&cfg, rows, 11, 600)
	more := sparseOps(&cfg, rows, 29, 300)
	// other populates different rows (plus some shared) without evicting,
	// so it leaves Evicted at 0 and a directory that ran it and released
	// must serialize exactly like a fresh one.
	var other []dirOp
	for i := 0; i < 60; i++ {
		row := uint64(i*97+3) % 2048
		other = append(other, dirOp{cid: row | 0xa<<16, probe: row, tag: uint32(i), lenIdx: i % tage.NumTables, taken: true, train: 4})
	}

	ref := NewContextDir(&cfg)
	refLog := runOps(ref, ops)
	if ref.Evicted() == 0 {
		t.Fatal("the script never evicted; it must exercise full rows")
	}
	refBlob := encodeDir(ref)

	t.Run("reused after release", func(t *testing.T) {
		d := NewContextDir(&cfg)
		runOps(d, other)
		if d.Evicted() != 0 {
			t.Fatal("the priming script evicted")
		}
		d.Release()
		for _, op := range ops {
			if d.Lookup(op.cid) != nil {
				t.Fatalf("context %#x survived Release", op.cid)
			}
		}
		sameDir(t, "reused", d, ref, runOps(d, ops), refLog)
	})

	pool := patternpool.New(patternpool.Config{})
	attach := func(name string) *ContextDir {
		d := NewContextDir(&cfg)
		d.AttachPool(pool.Attach(patternpool.Key{Tenant: "t", CID: name}, ""))
		return d
	}
	t.Run("recycled from the arena", func(t *testing.T) {
		prev := attach("prev")
		runOps(prev, other)
		held := prev.materializedBytes()
		prev.Release()
		if pool.ArenaBytes() != held || held == 0 {
			t.Fatalf("arena holds %d bytes, want the released %d", pool.ArenaBytes(), held)
		}
		d := attach("next")
		log := runOps(d, ops)
		if pool.ArenaBytes() != 0 {
			t.Fatalf("the new directory did not draw the released bundle (arena %d bytes)", pool.ArenaBytes())
		}
		sameDir(t, "recycled", d, ref, log, refLog)
		d.Release()
	})

	t.Run("reloaded", func(t *testing.T) {
		for _, d := range []*ContextDir{NewContextDir(&cfg), attach("reload")} {
			decodeInto(t, d, refBlob)
			sameDir(t, "reloaded", d, ref, nil, nil)
		}
		// Rows a load materializes in row order must evict and look up
		// exactly like rows an insert stream materialized in its order.
		cont := NewContextDir(&cfg)
		decodeInto(t, cont, refBlob)
		wantLog := runOps(ref, more)
		sameDir(t, "reloaded and continued", cont, ref, runOps(cont, more), wantLog)
	})
}
