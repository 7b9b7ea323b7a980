package llbpx

import (
	"fmt"

	"llbpx/internal/core"
	"llbpx/internal/llbp"
	"llbpx/internal/patternpool"
	"llbpx/internal/tage"
)

// xStats are LLBP-X's measurement counters (beyond the pattern buffer's).
type xStats struct {
	matches     uint64
	overrides   uint64
	useful      uint64
	harmful     uint64
	allocs      uint64
	allocDrops  uint64 // allocations dropped by history range selection
	usefulByLen [tage.NumTables]uint64
	deepPredict uint64 // predictions served under a deep context
	fpPrefetch  uint64 // modeled false-path prefetch attempts
}

// Predictor is LLBP-X. Like llbp.Predictor it wraps an unmodified
// TAGE-SC-L; it differs in forming two context IDs per depth class,
// selecting between them with the CTT, and restricting each depth's
// pattern sets to its history-length range. It implements core.Predictor.
type Predictor struct {
	cfg  Config
	tsl  *tage.Predictor
	bank *tage.TagBank
	rcr  llbp.RCR
	// D-delayed ContextID(0, WShallow) line serving the skip-D shallow ID.
	shallowDelay llbp.CtxDelay
	cd           *llbp.ContextDir
	pb           *llbp.PatternBuffer
	ctt          *CTT

	shallowLens []int
	deepLens    []int

	tick int64

	// Current (skip-D) context IDs at both depths, and the selected one.
	ccidShallow, ccidDeep uint64
	ccid                  uint64
	ccidDeepSelected      bool
	// Prefetch (no-skip) context IDs.
	pcidShallow, pcidDeep uint64
	pcid                  uint64
	prevPCID              uint64
	// The deep IDs are hashed from the RCR only when read (see deepIDs);
	// ccidDeep and pcidDeep hold them until the first push after
	// construction or a restore, and deepFromRCR is set from that push on.
	deepFromRCR bool
	// pcidRing remembers recent distinct prefetch contexts; the false-path
	// model re-requests evicted ones (reconvergent wrong paths revisit
	// recently active contexts).
	pcidRing [128]uint64
	ringPos  int

	cur xPredState

	st      xStats
	tracker *llbp.UsefulTracker

	trustWeak  int
	chooser    int
	probeClock uint64

	// deepHistory records every shallow CID that ever transitioned deep,
	// for deriving Opt-W oracle maps.
	deepHistory map[uint64]bool
}

type xPredState struct {
	pc       uint64
	d        tage.Detail
	set      *llbp.PatternSet
	entry    *llbp.PBEntry
	pat      *llbp.Pattern
	patLen   int
	eligible bool
	provided bool
	deep     bool // prediction served under the deep context
	tags     [tage.NumTables]uint32
}

const (
	chooserMax  = 255
	chooserMin  = -256
	chooserGate = -12
)

// New constructs an LLBP-X predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tsl, err := tage.New(cfg.Base.TSL)
	if err != nil {
		return nil, fmt.Errorf("llbpx %q: baseline: %w", cfg.Base.Name, err)
	}
	p := &Predictor{
		cfg:          cfg,
		tsl:          tsl,
		bank:         tsl.AttachTagBank(cfg.Base.TagBits),
		pb:           llbp.NewPatternBuffer(cfg.Base.PBEntries),
		ctt:          newCTT(cfg.CTTEntries, cfg.CTTAssoc, cfg.CTTTagBits, cfg.AvgHistSat),
		shallowLens:  cfg.shallowLens(),
		deepLens:     cfg.deepLens(),
		shallowDelay: llbp.NewCtxDelay(cfg.Base.D, cfg.WShallow),
		deepHistory:  make(map[uint64]bool),
	}
	p.cd = llbp.NewContextDir(&p.cfg.Base)
	if cfg.Base.CollectUseful {
		p.tracker = llbp.NewUsefulTracker()
	}
	return p, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("llbpx: invalid config: %v", err))
	}
	return p
}

// Name implements core.Predictor.
func (p *Predictor) Name() string { return p.cfg.Base.Name }

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Baseline exposes the first-level TAGE-SC-L.
func (p *Predictor) Baseline() *tage.Predictor { return p.tsl }

// Tracker returns processed useful-pattern statistics, or nil when
// CollectUseful is off.
func (p *Predictor) Tracker() *llbp.UsefulStats {
	if p.tracker == nil {
		return nil
	}
	return p.tracker.Snapshot()
}

// DeepHistory returns every shallow context ID that transitioned deep
// during the run — the input for building an Opt-W oracle.
func (p *Predictor) DeepHistory() map[uint64]bool {
	out := make(map[uint64]bool, len(p.deepHistory))
	for k, v := range p.deepHistory {
		out[k] = v
	}
	return out
}

// isDeep resolves the depth decision for a shallow context ID.
func (p *Predictor) isDeep(shallowCID uint64) bool {
	if p.cfg.OracleDepth != nil {
		return p.cfg.OracleDepth[shallowCID]
	}
	if !p.cfg.DepthAdaptation {
		return false
	}
	return p.ctt.Deep(shallowCID)
}

// activeLens returns the admitted history indices for a depth class.
func (p *Predictor) activeLens(deep bool) []int {
	if deep {
		return p.deepLens
	}
	return p.shallowLens
}

func (p *Predictor) buckets() int {
	if p.cfg.Base.InfinitePatterns {
		return 1
	}
	return p.cfg.Base.Buckets
}

// Predict implements core.Predictor.
func (p *Predictor) Predict(pc uint64) core.Prediction {
	d := p.tsl.Lookup(pc)
	c := &p.cur
	c.pc, c.d = pc, d
	c.set, c.entry, c.pat, c.provided, c.eligible = nil, nil, nil, false, false
	c.patLen = -1
	c.deep = p.ccidDeepSelected

	lens := p.activeLens(c.deep)
	for _, li := range lens {
		c.tags[li] = p.bank.Tag(pc, li)
	}

	entry := p.pb.Get(p.ccid)
	if entry == nil && p.cfg.Base.LatencyBranches == 0 {
		if set := p.cd.Lookup(p.ccid); set != nil {
			entry = p.pb.Fill(p.ccid, set, p.tick, p.tick, true, false)
		}
	}
	if entry != nil {
		entry.LastUse = p.tick
		if entry.AvailAt > p.tick {
			entry.WasLate = true
		} else {
			c.entry = entry
			c.set = entry.Set
			c.pat, c.patLen = c.set.BestMatch(&c.tags)
		}
	}

	base := d.TageTaken
	provLen, conf := d.ProviderLen, d.Confidence
	gated := false
	if c.pat != nil {
		if p.cfg.Base.GateWeakOverride && c.pat.Confidence() == 1 && p.trustWeak < 0 {
			gated = true
		}
		if p.cfg.Base.UseChooser && c.pat.Taken() != d.FinalTaken && p.chooser <= chooserGate {
			p.probeClock++
			if p.probeClock&15 != 0 {
				gated = true
			}
		}
	}
	if c.pat != nil && tage.HistoryLengths[c.patLen] >= d.ProviderLen {
		c.eligible = true
	}
	if c.eligible && !gated {
		c.provided = true
		base = c.pat.Taken()
		provLen = tage.HistoryLengths[c.patLen]
		conf = c.pat.Confidence()
		c.entry.Used = true
		if c.deep {
			p.st.deepPredict++
		}
	}

	final := base
	switch {
	case d.LoopValid:
		final = d.LoopTaken
	case !c.provided:
		final = d.FinalTaken
	default:
		// LLBP-X feeds the combined PB+TAGE result into the SC (unlike the
		// original LLBP, which suppresses it).
		final, _ = p.tsl.SCDecide(pc, base, conf)
	}

	fast := d.BimTaken
	if c.provided {
		fast = base
	}
	return core.Prediction{
		Taken:           final,
		ProviderLen:     provLen,
		Confidence:      conf,
		FastTaken:       fast,
		FromSecondLevel: c.provided,
	}
}

// Update implements core.Predictor.
func (p *Predictor) Update(b core.Branch, pred core.Prediction) {
	c := &p.cur
	d := c.d
	taken := b.Taken
	mis := pred.Taken != taken

	if c.provided {
		p.st.overrides++
		baselineWrong := d.FinalTaken != taken
		right := c.pat.Taken() == taken
		switch {
		case right && baselineWrong:
			p.st.useful++
			p.st.usefulByLen[c.patLen]++
			if p.tracker != nil {
				p.tracker.Record(c.set.CID, c.tags[c.patLen], c.patLen)
			}
		case !right && !baselineWrong:
			p.st.harmful++
		}
		if p.cfg.Base.UseChooser && c.pat.Taken() != d.FinalTaken {
			if right {
				if p.chooser < chooserMax {
					p.chooser++
				}
			} else if p.chooser > chooserMin {
				p.chooser--
			}
		}
	}

	if c.pat != nil && c.pat.Confidence() == 1 && c.pat.Taken() != d.TageTaken {
		if c.pat.Taken() == taken {
			if p.trustWeak < 7 {
				p.trustWeak++
			}
		} else if p.trustWeak > -8 {
			p.trustWeak--
		}
	}

	if c.pat != nil {
		p.st.matches++
		c.pat.CtrUpdate(taken)
		if c.provided && c.pat.Taken() != taken {
			c.pat.CtrUpdate(taken) // fast-flip stale confident patterns
		}
		c.set.Dirty = true
	}

	if mis {
		p.allocate(b)
	}

	scInput := d.TageTaken
	if c.provided {
		scInput = c.pat.Taken()
	}
	p.tsl.CommitDetail(b, d, scInput, !d.LoopValid)
	p.tick++

	if mis && p.cfg.ModelFalsePath {
		p.falsePathPrefetch()
	}
}

// allocate installs a new pattern with a longer history, honoring the
// depth class's history range: out-of-range allocations are dropped, but
// the CTT's avg-hist-len still observes them (the paper's rule), so a
// shallow context accumulating long-history demand transitions deep.
func (p *Predictor) allocate(b core.Branch) {
	c := &p.cur
	usedLenIdx := -1
	if c.provided {
		usedLenIdx = c.patLen
	} else if c.d.Provider >= 0 {
		usedLenIdx = c.d.Provider
	}
	// The desired length comes from the full TAGE ladder; the depth
	// class's range then decides whether it is admissible.
	wantIdx := usedLenIdx + 1
	if wantIdx >= tage.NumTables {
		return
	}
	wantBits := tage.HistoryLengths[wantIdx]

	// Depth adaptation observes every allocation attempt.
	if p.cfg.DepthAdaptation && p.cfg.OracleDepth == nil {
		p.observeAllocation(wantBits)
	}

	lens := p.activeLens(c.deep)
	allocIdx := llbp.NextActiveLen(lens, usedLenIdx)
	if allocIdx < 0 {
		p.st.allocDrops++
		return
	}
	set := c.set
	if set == nil {
		var evictedCID uint64
		var evicted bool
		set, evictedCID, evicted = p.cd.Insert(p.ccid)
		if evicted {
			p.pb.Drop(evictedCID)
		}
		p.pb.Fill(p.ccid, set, p.tick, p.tick, false, false)
	}
	// The tag bank state is unchanged since Predict (history advances in
	// CommitDetail, after allocation), so computing the tag here is
	// equivalent and covers lengths outside the predict-time range.
	tag := p.bank.Tag(c.pc, allocIdx)
	set.Allocate(tag, allocIdx, b.Taken, llbp.BucketOf(lens, p.buckets(), allocIdx), p.buckets())
	p.st.allocs++

	// Overflow signal (the paper's first heuristic): a pattern set whose
	// occupancy exceeds T_max starts CTT tracking for its shallow context.
	if p.cfg.DepthAdaptation && p.cfg.OracleDepth == nil &&
		set.Size() >= p.cfg.OverflowThreshold {
		p.ctt.Track(p.ccidShallow)
	}
}

// observeAllocation feeds the avg-hist-len counter of the current shallow
// context and records transitions.
func (p *Predictor) observeAllocation(wantBits int) {
	wasDeep := p.ctt.Deep(p.ccidShallow)
	p.ctt.Observe(p.ccidShallow, wantBits > p.cfg.Hth)
	if !wasDeep && p.ctt.Deep(p.ccidShallow) {
		p.deepHistory[p.ccidShallow] = true
	}
}

// TrackUnconditional implements core.Predictor.
func (p *Predictor) TrackUnconditional(b core.Branch) {
	p.tsl.TrackUnconditional(b)
	p.tick++

	p.rcr.Push(b.PC)
	p.deepFromRCR = true
	p.pcidShallow = p.rcr.ContextID(0, p.cfg.WShallow)
	p.ccidShallow = p.shallowDelay.Shift(p.pcidShallow)
	p.ccidDeepSelected = p.isDeep(p.ccidShallow)
	if p.ccidDeepSelected {
		p.ccid = p.rcr.ContextID(p.cfg.Base.D, p.cfg.WDeep)
	} else {
		p.ccid = p.ccidShallow
	}
	newPCID := p.pcidShallow
	if p.isDeep(p.pcidShallow) {
		newPCID = p.rcr.ContextID(0, p.cfg.WDeep)
	}
	if newPCID != p.pcid {
		p.prevPCID = p.pcid
		p.pcid = newPCID
		p.pcidRing[p.ringPos] = newPCID
		p.ringPos = (p.ringPos + 1) % len(p.pcidRing)
		p.prefetch(newPCID, false)
	}
}

// deepIDs returns the current deep prefetch and skip-D context IDs. Deep
// contexts are selected for few branches, so the 64-wide hashes are formed
// when read rather than on every push; ContextID(D, WDeep) is exact
// because D+WDeep <= MaxRCRDepth keeps the window in the register.
func (p *Predictor) deepIDs() (pcid, ccid uint64) {
	if !p.deepFromRCR {
		return p.pcidDeep, p.ccidDeep
	}
	return p.rcr.ContextID(0, p.cfg.WDeep), p.rcr.ContextID(p.cfg.Base.D, p.cfg.WDeep)
}

// RunBatch implements core.BatchPredictor: the canonical per-branch loop
// with direct (devirtualized) calls on the concrete receiver.
func (p *Predictor) RunBatch(batch []core.Branch, preds []core.Prediction) {
	for i, b := range batch {
		if b.Kind.Conditional() {
			pred := p.Predict(b.PC)
			preds[i] = pred
			p.Update(b, pred)
		} else {
			p.TrackUnconditional(b)
			preds[i] = core.Prediction{Taken: true}
		}
	}
}

func (p *Predictor) prefetch(cid uint64, falsePath bool) {
	if p.pb.Get(cid) != nil {
		return
	}
	if set := p.cd.Lookup(cid); set != nil {
		p.pb.Fill(cid, set, p.tick, p.tick+int64(p.cfg.Base.LatencyBranches), true, falsePath)
	}
}

// falsePathPrefetch models the wrong-path fetches a real front end issues
// in a misprediction's shadow: it re-requests recently active prefetch
// contexts that have already left the pattern buffer. Reconvergent wrong
// paths often revisit those contexts, so the fills are sometimes useful
// (coverage) and often redundant (over-prefetch) — Figure 14a's trade-off.
func (p *Predictor) falsePathPrefetch() {
	p.st.fpPrefetch++
	fetched := 0
	for i := 0; i < len(p.pcidRing) && fetched < 2; i++ {
		cid := p.pcidRing[(p.ringPos+i)%len(p.pcidRing)] // oldest first
		if cid == 0 || cid == p.pcid || p.pb.Get(cid) != nil {
			continue
		}
		if set := p.cd.Lookup(cid); set != nil {
			p.pb.Fill(cid, set, p.tick, p.tick+int64(p.cfg.Base.LatencyBranches), true, true)
			fetched++
		}
	}
}

// Stats implements core.StatsProvider.
func (p *Predictor) Stats() map[string]float64 {
	toDeep, toShallow := p.ctt.Transitions()
	m := map[string]float64{
		"llbpx.matches":          float64(p.st.matches),
		"llbpx.overrides":        float64(p.st.overrides),
		"llbpx.useful":           float64(p.st.useful),
		"llbpx.harmful":          float64(p.st.harmful),
		"llbpx.allocs":           float64(p.st.allocs),
		"llbpx.allocdrops":       float64(p.st.allocDrops),
		"llbpx.deep.predict":     float64(p.st.deepPredict),
		"llbpx.ctt.tracked":      float64(p.ctt.Tracked()),
		"llbpx.ctt.todeep":       float64(toDeep),
		"llbpx.ctt.toshallow":    float64(toShallow),
		"llbpx.ctt.deepnow":      float64(p.ctt.DeepContexts()),
		"llbpx.contexts.live":    float64(p.cd.Live()),
		"llbpx.contexts.evicted": float64(p.cd.Evicted()),
		"llbpx.prefetch.issued":  float64(p.pb.Stats.Issued),
		"llbpx.prefetch.ontime":  float64(p.pb.Stats.OnTime),
		"llbpx.prefetch.late":    float64(p.pb.Stats.Late),
		"llbpx.prefetch.unused":  float64(p.pb.Stats.Unused),
		"llbpx.prefetch.fp":      float64(p.st.fpPrefetch),
		"llbpx.prefetch.fpfill":  float64(p.pb.Stats.FPIssued),
		"llbpx.prefetch.fpused":  float64(p.pb.Stats.FPUsed),
		"llbpx.store.reads":      float64(p.pb.Stats.StoreRd),
		"llbpx.store.writes":     float64(p.pb.Stats.StoreWr),
	}
	for li, n := range p.st.usefulByLen {
		if n > 0 {
			m[fmt.Sprintf("llbpx.useful.len%d", tage.HistoryLengths[li])] = float64(n)
		}
	}
	return m
}

// ResetStats implements core.Resetter.
func (p *Predictor) ResetStats() {
	p.st = xStats{}
	p.pb.Stats = llbp.PrefetchStats{}
	if p.tracker != nil {
		p.tracker.Reset()
	}
}

// FinishMeasurement folds resident pattern-buffer entries into the
// prefetch statistics.
func (p *Predictor) FinishMeasurement() { p.pb.FlushStats() }

// Directory exposes the context directory for diagnostics.
func (p *Predictor) Directory() *llbp.ContextDir { return p.cd }

// AttachPatternPool backs the second-level pattern store with a shared
// pool namespace (patternpool.Attacher). Must be called before the first
// branch executes.
func (p *Predictor) AttachPatternPool(ns *patternpool.Namespace) { p.cd.AttachPool(ns) }

// ReleasePatternStore hands the pattern store's storage back to the pool
// and empties the pattern buffer (patternpool.Releaser). The predictor's
// second level is empty afterwards; the TAGE-SC-L first level keeps its
// state.
func (p *Predictor) ReleasePatternStore() {
	p.pb.Reset()
	p.cd.Release()
}
