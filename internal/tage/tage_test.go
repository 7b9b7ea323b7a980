package tage

import (
	"testing"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/history"
)

func condBranch(pc uint64, taken bool) core.Branch {
	return core.Branch{PC: pc, Kind: core.CondDirect, Taken: taken, InstrGap: 5}
}

// drive predicts and commits one conditional branch, returning whether the
// prediction was correct.
func drive(p *Predictor, b core.Branch) bool {
	d := p.Lookup(b.PC)
	ok := d.FinalTaken == b.Taken
	p.CommitDetail(b, d, d.TageTaken, !d.LoopValid)
	return ok
}

func TestConfigValidation(t *testing.T) {
	good := Config64K()
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.LogEntries = 2 },
		func(c *Config) { c.LogBimodal = 1 },
		func(c *Config) { c.ShortTagBits = 2 },
		func(c *Config) { c.LongTagBits = c.ShortTagBits - 1 },
		func(c *Config) { c.CtrBits = 1 },
		func(c *Config) { c.UResetPeriod = 0 },
	}
	for i, mutate := range bad {
		c := Config64K()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	// Infinite mode skips geometry checks.
	inf := ConfigInf()
	inf.LogEntries = 0
	if err := inf.Validate(); err != nil {
		t.Fatalf("infinite config must validate: %v", err)
	}
}

func TestHistoryLengthAnchors(t *testing.T) {
	// The paper quotes these lengths; the table must contain them at the
	// positions the shallow/deep ranges rely on.
	if HistoryLengths[0] != 6 || HistoryLengths[5] != 37 ||
		HistoryLengths[15] != 232 || HistoryLengths[20] != 3000 {
		t.Fatalf("history length anchors broken: %v", HistoryLengths)
	}
	for i := 1; i < NumTables; i++ {
		if HistoryLengths[i] <= HistoryLengths[i-1] {
			t.Fatalf("lengths must increase monotonically at %d", i)
		}
	}
	if HistoryIndex(232) != 15 || HistoryIndex(7) != -1 {
		t.Fatal("HistoryIndex lookup broken")
	}
}

func TestStorageBudgets(t *testing.T) {
	b64 := Config64K().StorageBits() / 8 / 1024
	if b64 < 40 || b64 > 90 {
		t.Fatalf("64K preset is %d KiB", b64)
	}
	b512 := Config512K().StorageBits() / 8 / 1024
	if b512 < 8*b64/2 {
		t.Fatalf("512K preset (%d KiB) not ~8x the 64K (%d KiB)", b512, b64)
	}
}

func TestLearnsStaticBranch(t *testing.T) {
	p := MustNew(Config64K())
	miss := 0
	for i := 0; i < 1000; i++ {
		if !drive(p, condBranch(0x1000, true)) && i > 10 {
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("static branch mispredicted %d times after warmup", miss)
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	p := MustNew(Config64K())
	miss := 0
	for i := 0; i < 2000; i++ {
		b := condBranch(0x2000, i%2 == 0)
		if !drive(p, b) && i > 200 {
			miss++
		}
	}
	if miss > 20 {
		t.Fatalf("alternating pattern mispredicted %d times after training", miss)
	}
}

func TestLearnsShortHistoryFunction(t *testing.T) {
	// Outcome = deterministic function of the last 6 direction bits.
	p := MustNew(Config64K())
	var hist uint64
	rng := hashutil.NewRand(1)
	miss, n := 0, 0
	for i := 0; i < 30000; i++ {
		// A noisy companion branch feeds entropy into the history.
		nb := condBranch(0x3100, rng.Bool(0.5))
		drive(p, nb)
		hist = hist<<1 | b2u(nb.Taken)

		taken := hashutil.Mix64(0xfeed^hist&63)&1 == 1
		b := condBranch(0x3000, taken)
		ok := drive(p, b)
		hist = hist<<1 | b2u(taken)
		if i > 15000 {
			n++
			if !ok {
				miss++
			}
		}
	}
	if rate := float64(miss) / float64(n); rate > 0.10 {
		t.Fatalf("short-history function missed %.1f%% after training", 100*rate)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestLoopPredictorCatchesFixedTrips(t *testing.T) {
	p := MustNew(Config64K())
	miss := 0
	for rep := 0; rep < 5000; rep++ {
		for it := 0; it < 7; it++ {
			b := condBranch(0x4000, it < 6)
			if !drive(p, b) && rep > 2000 {
				miss++
			}
		}
	}
	if miss > 0 {
		t.Fatalf("fixed-trip loop mispredicted %d times when fully trained", miss)
	}
}

func TestLoopPredictorSurvivesNonLoops(t *testing.T) {
	// A branch that is almost always taken must not be hijacked by a
	// bogus loop entry (the overrun regression).
	p := MustNew(Config64K())
	rng := hashutil.NewRand(2)
	miss, n := 0, 0
	for i := 0; i < 20000; i++ {
		b := condBranch(0x5000, rng.Bool(0.98))
		ok := drive(p, b)
		if i > 2000 {
			n++
			if !ok {
				miss++
			}
		}
	}
	if rate := float64(miss) / float64(n); rate > 0.05 {
		t.Fatalf("biased branch missed %.1f%% — loop predictor interference?", 100*rate)
	}
}

func TestInfiniteModeBeatsFiniteUnderAliasing(t *testing.T) {
	// Thousands of static branches with per-branch fixed outcomes: the
	// finite predictor suffers aliasing, infinite must be near perfect.
	run := func(cfg Config) int {
		p := MustNew(cfg)
		miss := 0
		for rep := 0; rep < 30; rep++ {
			for i := 0; i < 4000; i++ {
				pc := 0x10000 + uint64(i)*16
				taken := hashutil.Mix64(uint64(i))&1 == 1
				b := condBranch(pc, taken)
				if !drive(p, b) && rep > 20 {
					miss++
				}
			}
		}
		return miss
	}
	infMiss := run(ConfigInf())
	if infMiss > 400 {
		t.Fatalf("infinite mode missed %d on trained static branches", infMiss)
	}
}

func TestPredictUpdateInterface(t *testing.T) {
	var p core.Predictor = MustNew(Config64K())
	b := condBranch(0x6000, true)
	for i := 0; i < 100; i++ {
		pred := p.Predict(b.PC)
		p.Update(b, pred)
	}
	pred := p.Predict(b.PC)
	if !pred.Taken {
		t.Fatal("trained always-taken branch predicted not-taken via interface path")
	}
	if pred.ProviderLen < 0 {
		t.Fatal("negative provider length")
	}
	p.TrackUnconditional(core.Branch{PC: 0x7000, Kind: core.Call, Taken: true})
}

func TestLookupIsSideEffectFreeOnPrediction(t *testing.T) {
	p := MustNew(Config64K())
	b := condBranch(0x8000, true)
	for i := 0; i < 50; i++ {
		drive(p, b)
	}
	d1 := p.Lookup(b.PC)
	d2 := p.Lookup(b.PC)
	if d1 != d2 {
		t.Fatalf("consecutive Lookups disagree: %+v vs %+v", d1, d2)
	}
}

func TestPatternCountGrows(t *testing.T) {
	p := MustNew(ConfigInf())
	rng := hashutil.NewRand(3)
	for i := 0; i < 5000; i++ {
		pc := 0x9000 + uint64(rng.Intn(64))*8
		drive(p, condBranch(pc, rng.Bool(0.5)))
	}
	if p.PatternCount() == 0 {
		t.Fatal("random branches must allocate patterns")
	}
}

func TestTagBank(t *testing.T) {
	p := MustNew(Config64K())
	bank := p.AttachTagBank(13)
	if bank.Width() != 13 {
		t.Fatal("width accessor broken")
	}
	// Tags must be deterministic for the same (pc, history) and bounded.
	var last [NumTables]uint32
	for i := 0; i < 300; i++ {
		b := condBranch(0xa000+uint64(i%7)*16, i%3 == 0)
		for li := 0; li < NumTables; li++ {
			tag := bank.Tag(b.PC, li)
			if tag >= 1<<13 {
				t.Fatalf("tag %d exceeds 13 bits", tag)
			}
			if tag != bank.Tag(b.PC, li) {
				t.Fatal("Tag must be deterministic between history pushes")
			}
			last[li] = tag
		}
		d := p.Lookup(b.PC)
		p.CommitDetail(b, d, d.TageTaken, true)
	}
	// After history moved, long-history tags should change.
	changed := false
	for li := NumTables / 2; li < NumTables; li++ {
		if bank.Tag(0xa000, li) != last[li] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("tags never change with history")
	}
}

func TestTagBankPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AttachTagBank(40) must panic")
		}
	}()
	MustNew(Config64K()).AttachTagBank(40)
}

func TestSCDecideSideEffectFree(t *testing.T) {
	p := MustNew(Config64K())
	for i := 0; i < 200; i++ {
		drive(p, condBranch(0xb000, i%4 != 0))
	}
	a1, s1 := p.SCDecide(0xb000, true, 3)
	a2, s2 := p.SCDecide(0xb000, true, 3)
	if a1 != a2 || s1 != s2 {
		t.Fatal("SCDecide must be repeatable without state change")
	}
}

func TestIndexTagDeterministicUnderReplay(t *testing.T) {
	// Two predictors fed the same branch stream must agree on every
	// prediction: all hashing is a pure function of (config, stream).
	mk := func() *Predictor { return MustNew(Config64K()) }
	p1, p2 := mk(), mk()
	rng := hashutil.NewRand(17)
	for i := 0; i < 20000; i++ {
		if rng.Bool(0.25) {
			u := core.Branch{PC: 0x8000 + uint64(rng.Intn(64))*32, Kind: core.Call, Taken: true, InstrGap: 3}
			p1.TrackUnconditional(u)
			p2.TrackUnconditional(u)
			continue
		}
		b := condBranch(0x4000+uint64(rng.Intn(256))*16, rng.Bool(0.6))
		d1, d2 := p1.Lookup(b.PC), p2.Lookup(b.PC)
		if d1 != d2 {
			t.Fatalf("divergence at step %d: %+v vs %+v", i, d1, d2)
		}
		p1.CommitDetail(b, d1, d1.TageTaken, !d1.LoopValid)
		p2.CommitDetail(b, d2, d2.TageTaken, !d2.LoopValid)
	}
}

func TestUsefulnessAging(t *testing.T) {
	cfg := Config64K()
	cfg.UResetPeriod = 1000
	p := MustNew(cfg)
	rng := hashutil.NewRand(23)
	// Run enough conditionals to trigger several aging sweeps; nothing to
	// assert beyond liveness and sane predictions.
	for i := 0; i < 5000; i++ {
		b := condBranch(0x9000+uint64(rng.Intn(128))*8, rng.Bool(0.7))
		drive(p, b)
	}
	if p.PatternCount() == 0 {
		t.Fatal("no patterns allocated across aging sweeps")
	}
}

// TestFusedHashesMatchReference checks the split index hash and the fused
// fold pass against their textbook forms: per table, the whole index
// expression folded at once, and every register (the attached bank's
// included) advanced on its own from the global history.
func TestFusedHashesMatchReference(t *testing.T) {
	for _, cfg := range []Config{Config8K(), Config64K(), Config512K(), ConfigInf()} {
		p := MustNew(cfg)
		bank := p.AttachTagBank(17)
		var ref [NumTables][2]history.Folded
		for i, l := range HistoryLengths {
			ref[i] = [2]history.Folded{history.MakeFolded(l, 17), history.MakeFolded(l, 16)}
		}
		rng := hashutil.NewRand(uint64(cfg.LogEntries))
		for n := 0; n < 4000; n++ {
			pc := 0x40_0000 + uint64(rng.Intn(512))*4
			p.computeHashes(pc)
			mixed := hashutil.PCMix(pc)
			for i, l := range HistoryLengths {
				pathMask := ^uint64(0)
				if l < 16 {
					pathMask = uint64(1)<<uint(l) - 1
				}
				x := mixed ^ mixed>>(uint(i%7)+2) ^ p.fold(i, foldIdx).Value() ^ (p.path.Value() & pathMask) ^ uint64(i)*0x9e3779b9
				if want := uint32(hashutil.Fold(x, p.logE)); p.idx[i] != want {
					t.Fatalf("%s: branch %d table %d: index %#x, want %#x", cfg.Name, n, i, p.idx[i], want)
				}
				want := uint32((mixed ^ ref[i][0].Value() ^ ref[i][1].Value()<<1) & (1<<17 - 1))
				if got := bank.Tag(pc, i); got != want {
					t.Fatalf("%s: branch %d length %d: bank tag %#x, want %#x", cfg.Name, n, i, got, want)
				}
			}
			b := condBranch(pc, rng.Bool(0.6))
			if n%5 == 0 {
				b.Kind = core.Jump
				b.Taken = true
				p.TrackUnconditional(b)
			} else {
				drive(p, b)
			}
			for i := range ref {
				ref[i][0].Update(p.ghist)
				ref[i][1].Update(p.ghist)
			}
		}
	}
}
