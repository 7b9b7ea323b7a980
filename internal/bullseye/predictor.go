package bullseye

import (
	"fmt"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/llbp"
	"llbpx/internal/oatable"
	"llbpx/internal/patternpool"
	"llbpx/internal/tage"
)

// Arbitration constants shared with internal/llbp's design (the chooser
// and weak-override gates behave identically so the two second levels are
// comparable like-for-like).
const (
	chooserMax  = 255
	chooserMin  = -256
	chooserGate = -12
)

// candCap hard-caps the candidate filter's population. The table is
// reserved for exactly this many entries at construction, so admission
// tracking never rehashes (the zero-alloc bar), and a workload — or an
// adversarial client — streaming distinct mispredicting PCs can never
// grow the filter past its attach-time budget charge: at the cap, the
// coldest candidates are evicted to make room (see compactCand).
// candCtrMax saturates the per-branch miss counters.
const (
	candCap    = 1 << 13
	candCtrMax = 1 << 30
	// candChargeBytes is the candidate filter's budget charge against an
	// attached pool namespace, covering its full capped footprint: the
	// open-addressed table holds 2*candCap slots at 13 bytes each
	// (control byte + uint64 key + int32 counter) plus 8 bytes per entry
	// of preallocated eviction scratch — 34 bytes per capped entry. All
	// of it is allocated eagerly at construction, so the charge is
	// attach-time constant and exact.
	candChargeBytes = int64(candCap) * 34
)

// bullseyeStats are the measurement counters.
type bullseyeStats struct {
	matches    uint64 // predictions where a dedicated pattern matched
	overrides  uint64 // predictions provided by the dedicated state
	useful     uint64 // ...that corrected a baseline misprediction
	harmful    uint64 // ...that broke a correct baseline prediction
	allocs     uint64
	promotions uint64 // branches admitted to the H2P set
}

// predState is the scratch carried from Predict to the matching Update.
type predState struct {
	pc       uint64
	d        tage.Detail
	set      *llbp.PatternSet
	pat      *llbp.Pattern
	patLen   int
	provided bool
	tags     [tage.NumTables]uint32
}

// Predictor is the H2P-targeted predictor: an unmodified (small)
// TAGE-SC-L first level, plus large dedicated pattern sets for admitted
// H2P branches only. It implements core.BatchPredictor, snapshot.State,
// patternpool.Attacher, and patternpool.Releaser.
type Predictor struct {
	cfg    Config
	dirCfg llbp.Config
	tsl    *tage.Predictor
	bank   *tage.TagBank
	cd     *llbp.ContextDir
	active []int

	// cand is the H2P candidate filter: static branch PC -> saturating
	// count of baseline mispredictions. A branch whose count reaches
	// PromoteMisses is admitted and may hold a dedicated pattern set.
	// Population is hard-capped at candCap; candScratch is the
	// preallocated key buffer the eviction sweep collects into.
	cand        oatable.Map[int32]
	candScratch []uint64

	ns   *patternpool.Namespace
	tick int64
	cur  predState
	st   bullseyeStats

	// trustWeak and chooser adapt overrides exactly as in internal/llbp:
	// weak (confidence-1) patterns are gated while trustWeak is negative,
	// and all disagreeing overrides are suppressed — with a 1-in-16 probe —
	// while the chooser sits below chooserGate.
	trustWeak  int
	chooser    int
	probeClock uint64
}

// New constructs a bullseye predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tsl, err := tage.New(cfg.BaseTSL)
	if err != nil {
		return nil, fmt.Errorf("bullseye %q: baseline: %w", cfg.Name, err)
	}
	p := &Predictor{
		cfg:    cfg,
		dirCfg: cfg.dirConfig(),
		tsl:    tsl,
		bank:   tsl.AttachTagBank(cfg.TagBits),
		active: append([]int(nil), cfg.HistIndices...),
	}
	if err := p.dirCfg.Validate(); err != nil {
		return nil, fmt.Errorf("bullseye %q: directory: %w", cfg.Name, err)
	}
	p.cd = llbp.NewContextDir(&p.dirCfg)
	p.cand.Reserve(candCap)
	p.candScratch = make([]uint64, 0, candCap)
	for _, pc := range cfg.SeedPCs {
		if p.cand.Len() >= candCap {
			// Attribution exports rank by misprediction share, so
			// truncating at the cap keeps the hottest branches.
			break
		}
		n, inserted := p.cand.Put(pc)
		*n = int32(cfg.PromoteMisses)
		if inserted {
			p.st.promotions++
		}
	}
	return p, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("bullseye: invalid config: %v", err))
	}
	return p
}

// Name implements core.Predictor.
func (p *Predictor) Name() string { return p.cfg.Name }

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Baseline exposes the first-level TAGE-SC-L (read-only use).
func (p *Predictor) Baseline() *tage.Predictor { return p.tsl }

// TrackedBranches returns the candidate filter's population (diagnostics).
func (p *Predictor) TrackedBranches() int { return p.cand.Len() }

// cidOf maps a static branch PC to its directory key. The dedicated state
// is per-branch, so the "context" is just a well-mixed PC.
func cidOf(pc uint64) uint64 { return hashutil.Mix64(hashutil.PCMix(pc)) }

// admitted reports whether pc has crossed the H2P admission threshold.
func (p *Predictor) admitted(pc uint64) bool {
	n := p.cand.Get(pc)
	return n != nil && int(*n) >= p.cfg.PromoteMisses
}

// AttachPatternPool backs the dedicated pattern store with a shared pool
// namespace (patternpool.Attacher). Must be called before the first
// branch executes. The candidate filter's fixed footprint is charged
// against the namespace too — it is second-level state, just index-shaped.
func (p *Predictor) AttachPatternPool(ns *patternpool.Namespace) {
	p.cd.AttachPool(ns)
	p.ns = ns
	ns.Charge(candChargeBytes)
}

// ReleasePatternStore hands the dedicated storage back to the pool
// (patternpool.Releaser). The H2P candidate filter and the first level
// keep their state.
func (p *Predictor) ReleasePatternStore() {
	p.cd.Release()
	if p.ns != nil {
		p.ns.Uncharge(candChargeBytes)
		p.ns = nil
	}
}

// Predict implements core.Predictor: baseline lookup, then arbitration
// against the branch's dedicated pattern set when one exists. Dedicated
// state is read directly (zero latency): it backs specific static
// branches, so there is no context to prefetch ahead of.
func (p *Predictor) Predict(pc uint64) core.Prediction {
	d := p.tsl.Lookup(pc)
	c := &p.cur
	c.pc, c.d = pc, d
	c.set, c.pat, c.provided = nil, nil, false
	c.patLen = -1

	for _, li := range p.active {
		c.tags[li] = p.bank.Tag(pc, li)
	}
	if set := p.cd.Lookup(cidOf(pc)); set != nil {
		c.set = set
		c.pat, c.patLen = set.BestMatch(&c.tags)
	}

	base := d.TageTaken
	provLen, conf := d.ProviderLen, d.Confidence
	gated := false
	if c.pat != nil {
		if c.pat.Confidence() == 1 && p.trustWeak < 0 {
			gated = true
		}
		if c.pat.Taken() != d.FinalTaken && p.chooser <= chooserGate {
			p.probeClock++
			if p.probeClock&15 != 0 {
				gated = true
			}
		}
	}
	if c.pat != nil && tage.HistoryLengths[c.patLen] >= d.ProviderLen && !gated {
		// Dedicated state wins on same-or-longer history (the paper's
		// arbitration rule), under the same trust gates as LLBP.
		c.provided = true
		base = c.pat.Taken()
		provLen = tage.HistoryLengths[c.patLen]
		conf = c.pat.Confidence()
	}

	final := base
	switch {
	case d.LoopValid:
		final = d.LoopTaken
	case !c.provided:
		final = d.FinalTaken
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
	baselineWrong := d.FinalTaken != taken

	if c.provided {
		p.st.overrides++
		right := c.pat.Taken() == taken
		switch {
		case right && baselineWrong:
			p.st.useful++
		case !right && !baselineWrong:
			p.st.harmful++
		}
	}
	if c.provided && c.pat.Taken() != d.FinalTaken {
		if c.pat.Taken() == taken {
			if p.chooser < chooserMax {
				p.chooser++
			}
		} else if p.chooser > chooserMin {
			p.chooser--
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

	// Train the matched pattern; provided-and-wrong trains twice so stale
	// confident patterns flip quickly (as in internal/llbp).
	if c.pat != nil {
		p.st.matches++
		c.pat.CtrUpdate(taken)
		if c.provided && c.pat.Taken() != taken {
			c.pat.CtrUpdate(taken)
		}
		c.set.Dirty = true
	}

	// H2P admission tracking: count baseline mispredictions per static
	// branch; crossing the threshold promotes the branch. At the
	// population cap, a new PC first evicts the coldest candidates —
	// streams of one-off mispredicting PCs recycle through the filter's
	// fixed footprint instead of growing it.
	if baselineWrong {
		n := p.cand.Get(b.PC)
		if n == nil {
			if p.cand.Len() >= candCap {
				p.compactCand()
			}
			if p.cand.Len() < candCap {
				n, _ = p.cand.Put(b.PC)
			}
		}
		if n != nil {
			if *n < candCtrMax {
				*n++
			}
			if int(*n) == p.cfg.PromoteMisses {
				p.st.promotions++
			}
		}
	}

	// Allocate dedicated patterns only for admitted branches, climbing the
	// branch's own ladder of history lengths (llbp's OwnLadder policy).
	if mis && p.admitted(b.PC) {
		p.allocate(b)
	}

	scInput := d.TageTaken
	scApplied := !d.LoopValid && !c.provided
	p.tsl.CommitDetail(b, d, scInput, scApplied)
	p.tick++
}

// compactCand frees candidate-filter slots when the population hits
// candCap: every not-yet-admitted candidate is dropped first (they hold
// partial miss counts a genuinely hard branch will quickly re-earn), and
// only when every resident is admitted does the lowest-count batch go
// instead. The sweep always evicts at least one entry, collects keys into
// the preallocated scratch buffer, and deletes outside the Range — so the
// hot path stays allocation-free even under an adversarial stream of
// unique PCs. Evicted admitted branches merely stop allocating new
// dedicated patterns; any existing pattern set ages out of the directory
// through its normal replacement.
func (p *Predictor) compactCand() {
	evict := p.candScratch[:0]
	min := int32(candCtrMax)
	p.cand.Range(func(pc uint64, n *int32) bool {
		if int(*n) < p.cfg.PromoteMisses {
			evict = append(evict, pc)
		} else if *n < min {
			min = *n
		}
		return true
	})
	if len(evict) == 0 {
		p.cand.Range(func(pc uint64, n *int32) bool {
			if *n <= min {
				evict = append(evict, pc)
			}
			return true
		})
	}
	for _, pc := range evict {
		p.cand.Delete(pc)
	}
}

// allocate installs a pattern one active history length above the current
// match, creating the branch's dedicated set on first use.
func (p *Predictor) allocate(b core.Branch) {
	c := &p.cur
	allocIdx := llbp.NextActiveLen(p.active, c.patLen)
	if allocIdx < 0 {
		return
	}
	set := c.set
	if set == nil {
		set, _, _ = p.cd.Insert(cidOf(c.pc))
	}
	buckets := p.dirCfg.Buckets
	set.Allocate(c.tags[allocIdx], allocIdx, b.Taken, llbp.BucketOf(p.active, buckets, allocIdx), buckets)
	p.st.allocs++
}

// TrackUnconditional implements core.Predictor.
func (p *Predictor) TrackUnconditional(b core.Branch) {
	p.tsl.TrackUnconditional(b)
	p.tick++
}

// RunBatch implements core.BatchPredictor: the canonical per-branch loop
// with direct calls on the concrete receiver.
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

// Stats implements core.StatsProvider.
func (p *Predictor) Stats() map[string]float64 {
	return map[string]float64{
		"bullseye.matches":      float64(p.st.matches),
		"bullseye.overrides":    float64(p.st.overrides),
		"bullseye.useful":       float64(p.st.useful),
		"bullseye.harmful":      float64(p.st.harmful),
		"bullseye.allocs":       float64(p.st.allocs),
		"bullseye.promotions":   float64(p.st.promotions),
		"bullseye.h2p.tracked":  float64(p.cand.Len()),
		"bullseye.sets.live":    float64(p.cd.Live()),
		"bullseye.sets.evicted": float64(p.cd.Evicted()),
	}
}

// ResetStats implements core.Resetter (warmup boundary): measurement
// counters clear, learned state — including the H2P set — stays.
func (p *Predictor) ResetStats() { p.st = bullseyeStats{} }
