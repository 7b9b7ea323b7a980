package llbpx

import (
	"bytes"
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/llbp"
	"llbpx/internal/snapshot"
	"llbpx/internal/workload"
)

// eagerDeep recomputes the deep context IDs the way the predictor once
// did on every unconditional branch: the prefetch ID hashed from the RCR,
// the skip-D ID replayed through a delay line, both zero until the first
// push and restored verbatim from a snapshot.
type eagerDeep struct {
	rcr        llbp.RCR
	delay      llbp.CtxDelay
	pcid, ccid uint64
}

func newEagerDeep(c Config) *eagerDeep {
	return &eagerDeep{delay: llbp.NewCtxDelay(c.Base.D, c.WDeep)}
}

func (e *eagerDeep) push(c Config, pc uint64) {
	e.rcr.Push(pc)
	e.pcid = e.rcr.ContextID(0, c.WDeep)
	e.ccid = e.delay.Shift(e.pcid)
}

// restoredEager is the eager state of p just restored from a snapshot.
func restoredEager(p *Predictor) *eagerDeep {
	e := &eagerDeep{rcr: p.rcr, delay: llbp.NewCtxDelay(p.cfg.Base.D, p.cfg.WDeep), pcid: p.pcidDeep, ccid: p.ccidDeep}
	e.delay.Rebuild(&e.rcr, p.cfg.Base.D, p.cfg.WDeep)
	return e
}

func restore(t *testing.T, cfg Config, blob []byte) *Predictor {
	t.Helper()
	s, _, err := snapshot.Decode(blob, func(string) (snapshot.State, error) { return MustNew(cfg), nil })
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Predictor)
}

// TestDeepContextIDsMatchEager checks the on-demand deep context IDs
// against the eager computation: wherever the predictor reads one (the
// selected skip-D context, the prefetch context), and in every snapshot it
// writes — fresh, before the first unconditional branch, mid-stream, and
// straight after a restore, before any push rebuilds the IDs.
func TestDeepContextIDsMatchEager(t *testing.T) {
	prof, err := workload.ByName("nodeapp")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prog)
	branches := make([]core.Branch, 60_000)
	for i := range branches {
		branches[i], _ = gen.Next()
	}
	oracle := Default()
	oracle.OracleDepth = map[uint64]bool{}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", Default()}, {"oracle", oracle}} {
		cfg := c.cfg
		p, e := MustNew(cfg), newEagerDeep(cfg)
		// Only the deep IDs are written by changed code, so the snapshot
		// is the eager encoding when a restore of it holds the eager IDs.
		checkBlob := func(when string) {
			t.Helper()
			q := restore(t, cfg, snapshot.Encode("llbp-x", p))
			if q.pcidDeep != e.pcid || q.ccidDeep != e.ccid {
				t.Fatalf("%s: %s: snapshot holds deep IDs %#x/%#x, eager %#x/%#x",
					c.name, when, q.pcidDeep, q.ccidDeep, e.pcid, e.ccid)
			}
		}
		checkBlob("fresh")

		// Conditional branches only: no unconditional branch pushed yet.
		for i, n := 0, 0; n < 50; i++ {
			if b := branches[i]; b.Kind.Conditional() {
				p.Update(b, p.Predict(b.PC))
				n++
			}
		}
		checkBlob("before the first unconditional branch")

		rng := hashutil.NewRand(5)
		deepReads, pushes := 0, 0
		for n, b := range branches {
			if b.Kind.Conditional() {
				p.Update(b, p.Predict(b.PC))
				continue
			}
			if cfg.OracleDepth != nil && rng.Intn(3) == 0 {
				cfg.OracleDepth[p.pcidShallow] = true
			}
			p.TrackUnconditional(b)
			e.push(cfg, b.PC)
			pushes++
			if p.ccidDeepSelected {
				deepReads++
				if p.ccid != e.ccid {
					t.Fatalf("%s: branch %d: deep ccid %#x, eager %#x", c.name, n, p.ccid, e.ccid)
				}
			}
			if p.isDeep(p.pcidShallow) {
				deepReads++
				if p.pcid != e.pcid {
					t.Fatalf("%s: branch %d: deep pcid %#x, eager %#x", c.name, n, p.pcid, e.pcid)
				}
			}
			switch pushes {
			case 2_000:
				checkBlob("mid-stream")
			case 4_000:
				blob := snapshot.Encode("llbp-x", p)
				p = restore(t, cfg, blob)
				e = restoredEager(p)
				checkBlob("straight after a restore")
				if got := snapshot.Encode("llbp-x", p); !bytes.Equal(got, blob) {
					t.Fatalf("%s: re-saving a restored predictor changed its snapshot", c.name)
				}
			}
		}
		checkBlob("end of stream")
		if cfg.OracleDepth != nil && deepReads < 1000 {
			t.Fatalf("%s: deep contexts were read only %d times", c.name, deepReads)
		}
		t.Logf("%s: %d pushes, %d deep context reads", c.name, pushes, deepReads)
	}
}
