package llbp

import (
	"fmt"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/patternpool"
	"llbpx/internal/tage"
)

// llbpStats are the second level's measurement counters.
type llbpStats struct {
	matches     uint64 // predictions where some pattern matched
	overrides   uint64 // predictions provided by the second level
	useful      uint64 // ...that corrected a baseline misprediction
	harmful     uint64 // ...that broke a correct baseline prediction
	allocs      uint64
	usefulByLen [tage.NumTables]uint64
}

// Predictor is the original LLBP design: an unmodified TAGE-SC-L first
// level plus the contextualized second-level pattern store. It implements
// core.Predictor; the simulator drives Predict/Update for conditional
// branches and TrackUnconditional for calls, returns, and jumps.
type Predictor struct {
	cfg      Config
	tsl      *tage.Predictor
	bank     *tage.TagBank
	rcr      RCR
	cidDelay CtxDelay // D-delayed ContextID(0, W) values, serving ccid
	cd       *ContextDir
	pb       *PatternBuffer
	active   []int // admitted history indices, ascending

	tick     int64
	ccid     uint64 // current context ID (skips D recent UBs)
	pcid     uint64 // prefetch context ID (no skip)
	prevPCID uint64 // previous distinct prefetch context (false-path model)

	cur predState

	st      llbpStats
	anatomy MissAnatomy
	tracker *UsefulTracker

	// trustWeak is a use-alt-on-newly-allocated style counter in [-8,7]:
	// while negative, a confidence-1 (just allocated) pattern may not
	// override the baseline. It adapts on observed outcomes of weak
	// disagreements.
	trustWeak int
	// chooser is a global signed counter tracking whether second-level
	// overrides that disagree with the baseline have been paying off.
	// Overrides are suppressed while it sits below chooserGate, which only
	// happens on workloads where the second level persistently breaks
	// correct baseline predictions. While suppressing, every 16th
	// disagreement is let through as a probe so the counter can recover
	// after a phase change.
	chooser    int
	probeClock uint64
}

const (
	chooserMax  = 255
	chooserMin  = -256
	chooserGate = -12 // suppress only after sustained net harm
)

// New constructs an LLBP predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tsl, err := tage.New(cfg.TSL)
	if err != nil {
		return nil, fmt.Errorf("llbp %q: baseline: %w", cfg.Name, err)
	}
	p := &Predictor{
		cfg:      cfg,
		tsl:      tsl,
		bank:     tsl.AttachTagBank(cfg.TagBits),
		cidDelay: NewCtxDelay(cfg.D, cfg.W),
		active:   cfg.activeHistIndices(),
		pb:       NewPatternBuffer(cfg.PBEntries),
	}
	p.cd = NewContextDir(&p.cfg)
	if cfg.CollectUseful {
		p.tracker = NewUsefulTracker()
	}
	return p, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("llbp: invalid config: %v", err))
	}
	return p
}

// Name implements core.Predictor.
func (p *Predictor) Name() string { return p.cfg.Name }

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Baseline exposes the first-level TAGE-SC-L (read-only use).
func (p *Predictor) Baseline() *tage.Predictor { return p.tsl }

// Directory exposes the context directory for occupancy diagnostics.
func (p *Predictor) Directory() *ContextDir { return p.cd }

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

// Tracker returns the useful-pattern tracker, or nil when CollectUseful is
// off.
func (p *Predictor) Tracker() *UsefulStats {
	if p.tracker == nil {
		return nil
	}
	return p.tracker.Snapshot()
}

// contextOf returns the context ID predictions at pc are served under.
func (p *Predictor) contextOf(pc uint64) uint64 {
	if p.cfg.NoContext {
		return hashutil.Mix64(hashutil.PCMix(pc))
	}
	return p.ccid
}

// buckets returns the effective bucket count for pattern-set replacement.
func (p *Predictor) buckets() int {
	if p.cfg.NoTweaks || p.cfg.InfinitePatterns {
		return 1
	}
	return p.cfg.Buckets
}

// Predict implements core.Predictor.
func (p *Predictor) Predict(pc uint64) core.Prediction {
	d := p.tsl.Lookup(pc)
	c := &p.cur
	c.pc, c.d = pc, d
	c.set, c.entry, c.pat, c.provided, c.eligible = nil, nil, nil, false, false
	c.patLen = -1

	for _, li := range p.active {
		c.tags[li] = p.bank.Tag(pc, li)
	}

	cid := p.contextOf(pc)
	entry := p.pb.Get(cid)
	if entry == nil && (p.cfg.LatencyBranches == 0 || p.cfg.NoContext) {
		// Zero-latency (and per-branch-context) modes can fetch on demand.
		if set := p.cd.Lookup(cid); set != nil {
			entry = p.pb.Fill(cid, set, p.tick, p.tick, true, false)
		}
	}
	if entry != nil {
		entry.LastUse = p.tick
		if entry.AvailAt > p.tick {
			// The prefetch is still in flight: no second-level prediction.
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
		longer := tage.HistoryLengths[c.patLen] > d.ProviderLen
		if p.cfg.GateWeakOverride && c.pat.Confidence() == 1 && p.trustWeak < 0 {
			gated = true
		}
		if p.cfg.MinOverrideConf > 0 && c.pat.Confidence() < p.cfg.MinOverrideConf &&
			!(p.cfg.ExemptLonger && longer) {
			gated = true
		}
		if p.cfg.UseChooser && c.pat.Taken() != d.FinalTaken && p.chooser <= chooserGate {
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
		// Second level wins on same-or-longer history (the paper's
		// arbitration rule), gated so a freshly allocated pattern only
		// displaces the baseline while weak overrides have been paying
		// off (a use-alt-on-newly-allocated analogue).
		c.provided = true
		base = c.pat.Taken()
		provLen = tage.HistoryLengths[c.patLen]
		conf = c.pat.Confidence()
		c.entry.Used = true
	}

	final := base
	switch {
	case d.LoopValid:
		// The loop predictor is precise when confident; it remains part of
		// the baseline chain.
		final = d.LoopTaken
	case !c.provided:
		final = d.FinalTaken // baseline TSL behavior, SC included
	case p.cfg.NoTweaks:
		// Limit mode re-enables the SC on second-level predictions.
		final, _ = p.tsl.SCDecide(pc, base, conf)
	}

	fast := d.BimTaken
	if c.provided {
		fast = base // the PB is a single-cycle structure
	}
	return core.Prediction{
		Taken:           final,
		ProviderLen:     provLen,
		Confidence:      conf,
		FastTaken:       fast,
		FromSecondLevel: c.provided,
	}
}

// predState is the scratch carried from Predict to the matching Update.
type predState struct {
	pc       uint64
	d        tage.Detail
	set      *PatternSet
	entry    *PBEntry
	pat      *Pattern // longest matching second-level pattern
	patLen   int      // its history index
	eligible bool     // pattern long enough to override the baseline
	provided bool     // second level supplied the base prediction
	tags     [tage.NumTables]uint32
}

// Update implements core.Predictor.
func (p *Predictor) Update(b core.Branch, pred core.Prediction) {
	c := &p.cur
	d := c.d
	taken := b.Taken
	mis := pred.Taken != taken

	if d.FinalTaken != taken {
		p.recordAnatomy(taken)
	}
	if c.provided {
		p.st.overrides++
		baselineWrong := d.FinalTaken != taken
		llbpRight := c.pat.Taken() == taken
		switch {
		case llbpRight && baselineWrong:
			p.st.useful++
			p.st.usefulByLen[c.patLen]++
			if p.tracker != nil {
				p.tracker.Record(c.set.CID, c.tags[c.patLen], c.patLen)
			}
		case !llbpRight && !baselineWrong:
			p.st.harmful++
		}
	}

	// Adapt the per-branch chooser on disagreements with the baseline,
	// whether or not the override was applied.
	if p.cfg.UseChooser && c.provided && c.pat.Taken() != d.FinalTaken {
		if c.pat.Taken() == taken {
			if p.chooser < chooserMax {
				p.chooser++
			}
		} else if p.chooser > chooserMin {
			p.chooser--
		}
	}

	// Adapt the weak-override trust counter on disagreements.
	if c.pat != nil && c.pat.Confidence() == 1 && c.pat.Taken() != d.TageTaken {
		if c.pat.Taken() == taken {
			if p.trustWeak < 7 {
				p.trustWeak++
			}
		} else if p.trustWeak > -8 {
			p.trustWeak--
		}
	}

	// Train the matched second-level pattern. A provided-and-wrong
	// pattern trains twice: confident stale patterns must flip quickly or
	// they repeatedly break correct baseline predictions (the adaptation
	// lag the paper attributes contextualized training to).
	if c.pat != nil {
		p.st.matches++
		c.pat.CtrUpdate(taken)
		if c.provided && c.pat.Taken() != taken {
			c.pat.CtrUpdate(taken)
		}
		c.set.Dirty = true
	}

	// Allocate a longer pattern on a misprediction.
	if mis {
		p.allocate(b, pred)
	}

	// Baseline commit: the SC trains on what it actually arbitrated.
	scInput := d.TageTaken
	scApplied := !d.LoopValid
	if c.provided {
		if p.cfg.NoTweaks {
			scInput = c.pat.Taken()
		} else {
			scApplied = false // design tweak: SC suppressed on LLBP hits
		}
	}
	p.tsl.CommitDetail(b, d, scInput, scApplied)
	p.tick++
}

// allocate installs a new pattern with a longer history than the provider
// that just failed, creating the context's pattern set on first use.
func (p *Predictor) allocate(b core.Branch, pred core.Prediction) {
	c := &p.cur
	usedLenIdx := -1
	if p.cfg.OwnLadder {
		usedLenIdx = c.patLen // -1 when nothing matched: start at the bottom
	} else if c.provided {
		usedLenIdx = c.patLen
	} else if c.d.Provider >= 0 {
		usedLenIdx = c.d.Provider
	}
	allocIdx := NextActiveLen(p.active, usedLenIdx)
	if allocIdx < 0 {
		return
	}
	set := c.set
	if set == nil {
		cid := p.contextOf(c.pc)
		var evictedCID uint64
		var evicted bool
		set, evictedCID, evicted = p.cd.Insert(cid)
		if evicted {
			p.pb.Drop(evictedCID)
		}
		// The fresh set materializes directly in the PB (paper: "creates a
		// new pattern set in the PB and its context ID is written to the
		// CD").
		p.pb.Fill(cid, set, p.tick, p.tick, false, false)
	}
	for n := 0; n < p.cfg.AllocPerMiss && allocIdx >= 0; n++ {
		set.Allocate(c.tags[allocIdx], allocIdx, b.Taken, BucketOf(p.active, p.buckets(), allocIdx), p.buckets())
		p.st.allocs++
		allocIdx = NextActiveLen(p.active, allocIdx)
	}
}

// TrackUnconditional implements core.Predictor: it advances history, the
// rolling context register, and the prefetch engine.
func (p *Predictor) TrackUnconditional(b core.Branch) {
	p.tsl.TrackUnconditional(b)
	p.tick++
	if p.cfg.NoContext {
		return
	}
	p.rcr.Push(b.PC)
	newPCID := p.rcr.ContextID(0, p.cfg.W)
	p.ccid = p.cidDelay.Shift(newPCID)
	if newPCID != p.pcid {
		p.prevPCID = p.pcid
		p.pcid = newPCID
		p.prefetch(newPCID, false)
	}
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

// prefetch fills the PB from the pattern store when the context is
// resident, modeling the configured access latency.
func (p *Predictor) prefetch(cid uint64, falsePath bool) {
	if p.pb.Get(cid) != nil {
		return
	}
	if set := p.cd.Lookup(cid); set != nil {
		p.pb.Fill(cid, set, p.tick, p.tick+int64(p.cfg.LatencyBranches), true, falsePath)
	}
}

// Stats implements core.StatsProvider.
func (p *Predictor) Stats() map[string]float64 {
	m := map[string]float64{
		"llbp.matches":          float64(p.st.matches),
		"llbp.overrides":        float64(p.st.overrides),
		"llbp.useful":           float64(p.st.useful),
		"llbp.harmful":          float64(p.st.harmful),
		"llbp.allocs":           float64(p.st.allocs),
		"llbp.contexts.live":    float64(p.cd.Live()),
		"llbp.contexts.evicted": float64(p.cd.Evicted()),
		"llbp.prefetch.issued":  float64(p.pb.Stats.Issued),
		"llbp.prefetch.ontime":  float64(p.pb.Stats.OnTime),
		"llbp.prefetch.late":    float64(p.pb.Stats.Late),
		"llbp.prefetch.unused":  float64(p.pb.Stats.Unused),
		"llbp.store.reads":      float64(p.pb.Stats.StoreRd),
		"llbp.store.writes":     float64(p.pb.Stats.StoreWr),
	}
	for li, n := range p.st.usefulByLen {
		if n > 0 {
			m[fmt.Sprintf("llbp.useful.len%d", tage.HistoryLengths[li])] = float64(n)
		}
	}
	return m
}

// ResetStats implements core.Resetter (warmup boundary): measurement
// counters clear, learned state stays.
func (p *Predictor) ResetStats() {
	p.st = llbpStats{}
	p.pb.Stats = PrefetchStats{}
	if p.tracker != nil {
		p.tracker.Reset()
	}
}

// FinishMeasurement folds still-resident pattern-buffer entries into the
// prefetch statistics; call once at the end of a measured run before
// reading Stats.
func (p *Predictor) FinishMeasurement() { p.pb.FlushStats() }

// CurrentContext returns the active current-context ID (diagnostics).
func (p *Predictor) CurrentContext() uint64 { return p.ccid }

// HadSet reports whether the last Predict call found a usable pattern set
// (diagnostics).
func (p *Predictor) HadSet() bool { return p.cur.set != nil }

// MissAnatomy classifies baseline mispredictions by what the second level
// had to offer at that moment (diagnostics for the limit study).
type MissAnatomy struct {
	BaseMisses     uint64 // baseline TSL mispredicted
	UsefulOverride uint64 // LLBP provided and was right
	WrongOverride  uint64 // LLBP provided and was also wrong
	SilencedRight  uint64 // LLBP matched shorter than TAGE, would have been right
	SilencedWrong  uint64 // LLBP matched shorter, also wrong
	NoMatch        uint64 // no LLBP pattern matched at all
	NoSet          uint64 // no pattern set resident
}

// Anatomy returns the running miss anatomy (enable with RecordAnatomy).
func (p *Predictor) Anatomy() MissAnatomy { return p.anatomy }

// recordAnatomy is called from Update on baseline misses.
func (p *Predictor) recordAnatomy(taken bool) {
	c := &p.cur
	p.anatomy.BaseMisses++
	switch {
	case c.set == nil:
		p.anatomy.NoSet++
	case c.pat == nil:
		p.anatomy.NoMatch++
	case c.provided && c.pat.Taken() == taken:
		p.anatomy.UsefulOverride++
	case c.provided:
		p.anatomy.WrongOverride++
	case c.pat.Taken() == taken:
		p.anatomy.SilencedRight++
	default:
		p.anatomy.SilencedWrong++
	}
}
