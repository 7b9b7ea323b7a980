package tage_test

import (
	"bytes"
	"slices"
	"testing"

	"llbpx"
	"llbpx/internal/core"
	"llbpx/internal/history"
	"llbpx/internal/tage"
)

// baseOf returns the TAGE-SC-L a registry predictor runs on, or nil.
func baseOf(p llbpx.Predictor) *tage.Predictor {
	switch v := p.(type) {
	case *tage.Predictor:
		return v
	case interface{ Baseline() *tage.Predictor }:
		return v.Baseline()
	}
	return nil
}

// referenceFolds returns, per table and logical fold kind, an independently
// advanced fold of the width the configuration gives that fold, or a zero
// Folded (OrigLen 0, never compared) for folds it does not have.
func referenceFolds(cfg tage.Config, bank uint) [tage.NumTables][tage.FoldKinds]history.Folded {
	var ref [tage.NumTables][tage.FoldKinds]history.Folded
	for i, l := range tage.HistoryLengths {
		idx, tb := uint(cfg.LogEntries), uint(cfg.ShortTagBits)
		if i >= cfg.LongTagFrom {
			tb = uint(cfg.LongTagBits)
		}
		if cfg.Infinite {
			idx, tb = 10, 12
			ref[i][tage.FoldInf1] = history.MakeFolded(l, 24)
			ref[i][tage.FoldInf2] = history.MakeFolded(l, 23)
		}
		ref[i][tage.FoldIdx] = history.MakeFolded(l, idx)
		ref[i][tage.FoldTag1] = history.MakeFolded(l, tb)
		ref[i][tage.FoldTag2] = history.MakeFolded(l, tb-1)
		if bank != 0 {
			ref[i][tage.FoldBank1] = history.MakeFolded(l, bank)
			ref[i][tage.FoldBank2] = history.MakeFolded(l, bank-1)
		}
	}
	return ref
}

// TestFoldRegistersMatchReference drives every registry predictor built on
// a TAGE-SC-L (and bullseye over other bases and tag widths) through a
// nodeapp stream and, after every branch, compares every logical fold of
// its base (index, tags, infinite-mode keys, tag bank) with a history.Folded
// advanced on its own from an independent global history. Halfway through,
// the predictor is replaced by a snapshot restore of itself, so the folds a
// restore fills are checked too.
func TestFoldRegistersMatchReference(t *testing.T) {
	prof, err := llbpx.WorkloadByName("nodeapp")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := llbpx.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	gen := llbpx.NewGenerator(prog)
	branches := make([]llbpx.Branch, 3000)
	for i := range branches {
		branches[i], _ = gen.Next()
	}

	specs := append(llbpx.PredictorNames(), "bullseye(base=tsl-64k)", "bullseye(tag_bits=10)", "bullseye(base=tsl-32k,tag_bits=8)")
	var covered []string
	for _, spec := range specs {
		p, err := llbpx.NewPredictorByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		base := baseOf(p)
		if base == nil {
			continue
		}
		covered = append(covered, spec)
		ref := referenceFolds(base.Config(), base.BankWidth())
		g := history.NewGlobal(tage.HistoryLengths[tage.NumTables-1] + 8)
		for n, b := range branches {
			if n == len(branches)/2 {
				var buf bytes.Buffer
				if err := llbpx.SavePredictorState(&buf, spec, p); err != nil {
					t.Fatalf("%s: save: %v", spec, err)
				}
				if p, _, err = llbpx.LoadPredictorState(&buf); err != nil {
					t.Fatalf("%s: restore: %v", spec, err)
				}
				base = baseOf(p)
			}
			if b.Kind.Conditional() {
				p.Update(b, p.Predict(b.PC))
			} else {
				p.TrackUnconditional(b)
			}
			g.Push(core.HistoryBit(b))
			for i := range ref {
				for k := range ref[i] {
					r := &ref[i][k]
					if r.OrigLen() == 0 {
						continue
					}
					r.Update(g)
					if got := base.FoldValue(i, k); got != r.Value() {
						t.Fatalf("%s: branch %d table %d fold %d: %#x, want %#x", spec, n, i, k, got, r.Value())
					}
				}
			}
		}
	}
	for _, want := range []string{"tsl-8k", "tsl-64k", "tsl-inf", "llbp", "llbp-x", "bullseye"} {
		if !slices.Contains(covered, want) {
			t.Errorf("%s was not covered (covered: %v)", want, covered)
		}
	}
}

// TestDistinctFoldCounts pins the register sharing the presets get: a
// 10-bit first tag fold is tsl-64k's index fold on the ten short tables,
// and LLBP-X's 13-bit tag bank reads the long tables' tag folds.
func TestDistinctFoldCounts(t *testing.T) {
	for _, c := range []struct {
		spec string
		want int
	}{
		{"tsl-8k", 63},   // 7-bit index, 10/13-bit tags: nothing shared
		{"tsl-64k", 53},  // 63 less the ten short tables' first tag fold
		{"tsl-inf", 105}, // 10-bit index, 12/11-bit tags, 24/23-bit keys
		{"llbp-x", 73},   // 105 folds, 32 of them shared
	} {
		p, err := llbpx.NewPredictorByName(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := baseOf(p).DistinctFolds(); got != c.want {
			t.Errorf("%s: %d distinct fold registers, want %d", c.spec, got, c.want)
		}
	}
}
