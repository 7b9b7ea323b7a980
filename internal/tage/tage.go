package tage

import (
	"fmt"
	"slices"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/history"
	"llbpx/internal/oatable"
)

// entry is one tagged-table pattern: a partial tag, a signed direction
// counter, and a usefulness bit(s) guiding replacement.
type entry struct {
	tag uint32
	ctr int8
	u   uint8
}

// Detail is the full provenance of one TAGE-SC-L lookup. Hierarchical
// predictors (LLBP/LLBP-X) use it to arbitrate against the pattern buffer
// and to decide statistical-corrector gating; the plain predictor distills
// it into a core.Prediction.
type Detail struct {
	// FinalTaken is the TSL prediction after loop and SC stages.
	FinalTaken bool
	// TageTaken is the TAGE prediction (after use-alt-on-newly-allocated
	// arbitration, before loop/SC).
	TageTaken bool
	// BimTaken is the bimodal fallback direction (the single-cycle "fast"
	// prediction in an overriding front end).
	BimTaken bool
	// Provider is the providing table index, or -1 for bimodal.
	Provider int
	// ProviderLen is the provider's history length in bits (0 = bimodal).
	ProviderLen int
	// Confidence is |2*ctr+1| of the providing counter (1 = weakest).
	Confidence int
	// AltTaken is the alternate prediction's direction.
	AltTaken     bool
	altProvider  int
	weakProvider bool
	usedAlt      bool
	// Loop predictor outputs.
	LoopValid bool
	LoopTaken bool
	// SCSum is the statistical corrector's weighted vote; SCUsed reports
	// whether it overrode the input prediction.
	SCSum  int
	SCUsed bool
}

// hashConst holds the per-table constants of the index/tag hash, computed
// once at construction so computeHashes does no per-branch config checks.
type hashConst struct {
	tagMask uint64
	// foldedOffset is the table's index-hash constant, already folded to
	// the index width (Fold is XOR-linear, so it folds once, here).
	foldedOffset uint64
	// shiftGroup and pathGroup select the table's PC and path terms in
	// Predictor.shiftFold and Predictor.pathFold.
	shiftGroup, pathGroup uint8
}

// The logical folds of one table, in the order they are laid out and
// restored: the index and two tag folds, the infinite-mode key folds, and
// an attached TagBank's two. A fold absent from the configuration has no
// register.
const (
	foldIdx = iota
	foldTag1
	foldTag2
	foldInf1
	foldInf2
	foldBank1
	foldBank2
	foldKinds
)

// Number of distinct index-hash PC shifts (table i shifts by i%7+2) and
// the width of the path history mixed into the index.
const (
	shiftGroups = 7
	pathBits    = 16
)

// Predictor is a TAGE-SC-L instance. It implements core.Predictor for
// standalone use and exposes Lookup/CommitDetail/TrackUnconditional plus
// an attachable TagBank for the hierarchical predictors layered on top of
// it. Not safe for concurrent use.
type Predictor struct {
	cfg Config

	ghist *history.Global
	path  *history.Path

	// Folded history registers live inline, one row per table, so one
	// history push touches each table's folds together. Every fold of row
	// i compresses HistoryLengths[i] bits, so folds of equal width hold
	// equal values and share a register: the row keeps one per distinct
	// width in its first nregs[i] slots, and slot[i][k] names the one
	// logical fold k reads.
	folds [NumTables][foldKinds]history.Folded
	slot  [NumTables][foldKinds]uint8
	nregs [NumTables]uint8
	bank  *TagBank

	hc [NumTables]hashConst
	// The index width, the halving-fold windows of 64-bit and path-width
	// values at that width, and the PC and path terms of the index hash per
	// distinct shift and path mask, folded once per lookup.
	logE, foldSpan, pathSpan uint
	shiftFold                [shiftGroups]uint64
	pathMasks, pathFold      [NumTables]uint64
	pathGroups               int

	tables  [][]entry            // finite mode
	inf     []oatable.Map[entry] // infinite mode, keyed alias-free
	bimodal []int8

	useAlt int // use-alt-on-newly-allocated counter [-8,7]
	rng    *hashutil.Rand
	tick   int

	sc   *corrector
	loop *loopPredictor

	// Per-lookup scratch, valid between Lookup and CommitDetail. The
	// provider/alt entry pointers are cached so CommitDetail trains without
	// re-hashing; like idx/tag they are rewritten by the next Lookup and
	// excluded from snapshots.
	idx       [NumTables]uint32
	tag       [NumTables]uint32
	provEntry *entry
	altEntry  *entry

	last Detail // cached for the core.Predictor fast path
}

// New constructs a predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:   cfg,
		ghist: history.NewGlobal(HistoryLengths[NumTables-1] + 8),
		path:  history.NewPath(pathBits),
		rng:   hashutil.NewRand(0x7a5e5),
	}
	logE := uint(cfg.LogEntries)
	if cfg.Infinite {
		logE = 10 // inf mode still folds for key mixing
	}
	p.logE = logE
	p.foldSpan = hashutil.FoldSpan(64, logE)
	p.pathSpan = hashutil.FoldSpan(pathBits, logE)
	for i, l := range HistoryLengths {
		pathMask := uint64(1)<<min(l, pathBits) - 1
		g := slices.Index(p.pathMasks[:p.pathGroups], pathMask)
		if g < 0 {
			g = p.pathGroups
			p.pathMasks[g] = pathMask
			p.pathGroups++
		}
		p.hc[i] = hashConst{
			tagMask:      uint64(1)<<p.foldWidths(i)[foldTag1] - 1,
			foldedOffset: hashutil.Fold(uint64(i)*0x9e3779b9, logE),
			shiftGroup:   uint8(i % shiftGroups),
			pathGroup:    uint8(g),
		}
	}
	p.layoutFolds()
	if cfg.Infinite {
		p.inf = make([]oatable.Map[entry], NumTables)
	} else {
		p.tables = make([][]entry, NumTables)
		for i := range p.tables {
			p.tables[i] = make([]entry, 1<<cfg.LogEntries)
		}
	}
	p.bimodal = make([]int8, 1<<cfg.LogBimodal)
	if cfg.UseSC {
		p.sc = newCorrector()
		if cfg.UseLocalSC {
			p.sc.enableLocal()
		}
	}
	if cfg.UseLoop {
		p.loop = newLoopPredictor()
	}
	return p, nil
}

// MustNew is New but panics on configuration errors; presets are known
// valid.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("tage: invalid preset: %v", err))
	}
	return p
}

// foldWidths returns the width of each logical fold of table i, 0 for a
// fold the configuration does not have.
func (p *Predictor) foldWidths(i int) [foldKinds]uint {
	var w [foldKinds]uint
	tb := uint(p.cfg.tagBits(i))
	if p.cfg.Infinite {
		tb = 12
		w[foldInf1], w[foldInf2] = 24, 23
	}
	w[foldIdx], w[foldTag1], w[foldTag2] = p.logE, tb, tb-1
	if p.bank != nil {
		w[foldBank1], w[foldBank2] = p.bank.width, p.bank.width-1
	}
	return w
}

// layoutFolds gives every logical fold a register. Folds of one table with
// the same width compress the same bits the same way, so they share one:
// in tsl-64k a 10-bit first tag fold is the index fold, and a 13-bit
// TagBank's folds are the long tables' tag folds. It runs at construction
// and when a TagBank attaches, before any history exists.
func (p *Predictor) layoutFolds() {
	for i, l := range HistoryLengths {
		ws := p.foldWidths(i)
		n := uint8(0)
		for k, w := range ws {
			if w == 0 {
				continue
			}
			if j := slices.Index(ws[:], w); j < k {
				p.slot[i][k] = p.slot[i][j]
				continue
			}
			p.folds[i][n] = history.MakeFolded(l, w)
			p.slot[i][k] = n
			n++
		}
		p.nregs[i] = n
	}
}

// fold returns the register holding logical fold k of table i.
func (p *Predictor) fold(i, k int) *history.Folded { return &p.folds[i][p.slot[i][k]] }

// Name implements core.Predictor.
func (p *Predictor) Name() string { return p.cfg.Name }

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

func ctrTaken(c int8) bool { return c >= 0 }

func confidence(c int8) int {
	v := 2*int(c) + 1
	if v < 0 {
		v = -v
	}
	return v
}

func (p *Predictor) ctrMax() int8 { return int8(1<<(p.cfg.CtrBits-1)) - 1 }
func (p *Predictor) ctrMin() int8 { return -int8(1 << (p.cfg.CtrBits - 1)) }

func (p *Predictor) ctrUpdate(c *int8, taken bool) {
	if taken {
		if *c < p.ctrMax() {
			*c++
		}
	} else if *c > p.ctrMin() {
		*c--
	}
}

// bimIndex returns the bimodal index for pc.
func (p *Predictor) bimIndex(pc uint64) uint64 {
	return (pc >> 2) & uint64(len(p.bimodal)-1)
}

// computeHashes fills the per-table index and tag scratch for pc using the
// current (pre-branch) history state.
//
// The index of table i is Fold(m ^ m>>shift_i ^ path&pathMask_i ^ idx_i ^
// offset_i) with m = PCMix(pc). Fold is XOR-linear, so it is computed
// term by term: the PC term once per distinct shift, the 16-bit path term
// once per distinct mask (every table of 16 or more bits reads the whole
// path), the offset at construction, and idx_i not at all, since the fold
// register is already logE bits wide.
func (p *Predictor) computeHashes(pc uint64) {
	mixed := hashutil.PCMix(pc)
	logE, span, pathSpan := p.logE, p.foldSpan, p.pathSpan
	for g := range p.shiftFold {
		p.shiftFold[g] = hashutil.FoldN(mixed^mixed>>(uint(g)+2), logE, span)
	}
	path := p.path.Value()
	for g, m := range p.pathMasks[:p.pathGroups] {
		p.pathFold[g] = hashutil.FoldN(path&m, logE, pathSpan)
	}
	for i := range p.hc {
		h := &p.hc[i]
		f, s := &p.folds[i], &p.slot[i]
		p.idx[i] = uint32(p.shiftFold[h.shiftGroup] ^ p.pathFold[h.pathGroup] ^ f[s[foldIdx]].Value() ^ h.foldedOffset)
		t := mixed ^ f[s[foldTag1]].Value() ^ (f[s[foldTag2]].Value() << 1)
		p.tag[i] = uint32(t & h.tagMask)
	}
}

// infKey builds the alias-free entry key for table i: the full PC combined
// with two wide history folds, so distinct (pc, history) pairs collide with
// negligible probability.
func (p *Predictor) infKey(pc uint64, i int) uint64 {
	return hashutil.Mix64(pc*0x9e3779b97f4a7c15 + p.fold(i, foldInf1).Value()<<25 + p.fold(i, foldInf2).Value()<<2 + uint64(i))
}

// lookupEntry returns the matching entry of table i, or nil.
func (p *Predictor) lookupEntry(pc uint64, i int) *entry {
	if p.cfg.Infinite {
		return p.inf[i].Get(p.infKey(pc, i))
	}
	e := &p.tables[i][p.idx[i]]
	if e.tag == p.tag[i] {
		return e
	}
	return nil
}

// Lookup performs a full, side-effect-free TSL prediction for pc. The
// returned Detail must be passed back to CommitDetail for the same branch
// before the next Lookup.
func (p *Predictor) Lookup(pc uint64) Detail {
	p.computeHashes(pc)
	var d Detail
	d.Provider, d.altProvider = -1, -1

	var provEntry, altEntry *entry
	for i := NumTables - 1; i >= 0; i-- {
		e := p.lookupEntry(pc, i)
		if e == nil {
			continue
		}
		if d.Provider < 0 {
			d.Provider = i
			provEntry = e
		} else {
			d.altProvider = i
			altEntry = e
			break
		}
	}
	p.provEntry, p.altEntry = provEntry, altEntry

	d.BimTaken = p.bimodal[p.bimIndex(pc)] >= 0
	d.AltTaken = d.BimTaken
	if altEntry != nil {
		d.AltTaken = ctrTaken(altEntry.ctr)
	}

	if provEntry != nil {
		d.ProviderLen = HistoryLengths[d.Provider]
		d.Confidence = confidence(provEntry.ctr)
		provTaken := ctrTaken(provEntry.ctr)
		d.weakProvider = confidence(provEntry.ctr) == 1 && provEntry.u == 0
		if d.weakProvider && p.useAlt >= 0 {
			d.TageTaken = d.AltTaken
			d.usedAlt = true
		} else {
			d.TageTaken = provTaken
		}
	} else {
		d.TageTaken = d.BimTaken
		d.Confidence = 1
	}

	d.FinalTaken = d.TageTaken
	if p.loop != nil {
		if taken, valid := p.loop.lookup(pc); valid {
			d.LoopValid, d.LoopTaken = true, taken
			d.FinalTaken = taken
		}
	}
	if p.sc != nil && !d.LoopValid {
		sum := p.sc.lookup(pc, d.FinalTaken, d.Confidence)
		d.SCSum = sum
		scTaken := sum >= 0
		if scTaken != d.FinalTaken && abs(sum) >= p.sc.useThreshold() {
			d.SCUsed = true
			d.FinalTaken = scTaken
		}
	}
	p.last = d
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SCDecide applies the statistical corrector to an externally provided
// prediction (the LLBP-X pattern-buffer output) using the current history
// state, without training anything. It returns the possibly corrected
// direction and the SC sum.
func (p *Predictor) SCDecide(pc uint64, taken bool, conf int) (bool, int) {
	if p.sc == nil {
		return taken, 0
	}
	sum := p.sc.lookup(pc, taken, conf)
	scTaken := sum >= 0
	if scTaken != taken && abs(sum) >= p.sc.useThreshold() {
		return scTaken, sum
	}
	return taken, sum
}

// CommitDetail trains all components with the resolved branch and pushes
// the branch's bit into the global history. d must come from the
// immediately preceding Lookup for the same pc. scInputTaken is the
// direction that was fed to the SC stage (differs from d's when a
// second-level predictor provided it), and scFinal whether the SC's
// decision was actually used by the hierarchy; together they let the SC
// train on what it really saw.
func (p *Predictor) CommitDetail(b core.Branch, d Detail, scInputTaken bool, scApplied bool) {
	pc, taken := b.PC, b.Taken

	if p.loop != nil {
		p.loop.update(pc, taken, d.TageTaken != taken)
	}
	if p.sc != nil {
		if scApplied {
			p.sc.train(pc, scInputTaken, d.Confidence, taken)
		}
		p.sc.pushLocal(pc, taken)
	}

	// use-alt-on-newly-allocated bookkeeping. The provider/alt entries were
	// resolved by the Lookup that produced d; the scratch hashes are
	// unchanged since, so the cached pointers are the entries a re-lookup
	// would find.
	if d.Provider >= 0 && d.weakProvider {
		if provEntry := p.provEntry; provEntry != nil {
			provTaken := ctrTaken(provEntry.ctr)
			if provTaken != d.AltTaken {
				if d.AltTaken == taken {
					if p.useAlt < 7 {
						p.useAlt++
					}
				} else if p.useAlt > -8 {
					p.useAlt--
				}
			}
		}
	}

	// Provider (and, for weak providers, alternate) counter updates.
	if d.Provider >= 0 {
		if e := p.provEntry; e != nil {
			provTaken := ctrTaken(e.ctr)
			// Usefulness: provider correct where alternate differs.
			if provTaken != d.AltTaken {
				if provTaken == taken {
					if e.u < 3 {
						e.u++
					}
				} else if e.u > 0 {
					e.u--
				}
			}
			p.ctrUpdate(&e.ctr, taken)
			if d.weakProvider {
				if d.altProvider >= 0 {
					if ae := p.altEntry; ae != nil {
						p.ctrUpdate(&ae.ctr, taken)
					}
				} else {
					p.bimUpdate(pc, taken)
				}
			}
		}
	} else {
		p.bimUpdate(pc, taken)
	}

	// Allocation on a TAGE misprediction.
	if d.TageTaken != taken && d.Provider < NumTables-1 {
		p.allocate(pc, taken, d.Provider)
	}

	// Graceful usefulness aging.
	if !p.cfg.Infinite {
		p.tick++
		if p.tick >= p.cfg.UResetPeriod {
			p.tick = 0
			for i := range p.tables {
				tbl := p.tables[i]
				for j := range tbl {
					tbl[j].u >>= 1
				}
			}
		}
	}

	p.pushHistory(b)
}

func (p *Predictor) bimUpdate(pc uint64, taken bool) {
	i := p.bimIndex(pc)
	c := p.bimodal[i]
	if taken {
		if c < 1 {
			c++
		}
	} else if c > -2 {
		c--
	}
	p.bimodal[i] = c
}

// allocate installs 1-2 new weak patterns on tables longer than the
// provider, following TAGE's usefulness-guided policy.
func (p *Predictor) allocate(pc uint64, taken bool, provider int) {
	weak := int8(0)
	if !taken {
		weak = -1
	}
	start := provider + 1
	// Random jitter over the first candidate spreads allocation pressure.
	if p.rng.Intn(4) == 0 && start < NumTables-1 {
		start++
	}
	if p.cfg.Infinite {
		// Alias-free mode: always room.
		allocated := 0
		for i := start; i < NumTables && allocated < 2; i++ {
			if e, inserted := p.inf[i].Put(p.infKey(pc, i)); inserted {
				e.ctr = weak
				allocated++
				i++ // leave a gap between allocations
			}
		}
		return
	}
	allocated := 0
	for i := start; i < NumTables && allocated < 2; i++ {
		e := &p.tables[i][p.idx[i]]
		if e.u == 0 {
			e.tag = p.tag[i]
			e.ctr = weak
			allocated++
			i++ // leave a gap between allocations
		} else {
			e.u--
		}
	}
}

// pushHistory records the branch's canonical history bit and advances every
// folded register, those of an attached TagBank included, in one pass; it
// must run exactly once per retired branch. All registers of table i
// compress the same HistoryLengths[i] bits, so the bit aging out of that
// window is fetched once per table.
func (p *Predictor) pushHistory(b core.Branch) {
	p.ghist.Push(core.HistoryBit(b))
	p.path.Push(b.PC)
	newest := uint64(p.ghist.Bit(0))
	for i := range p.folds {
		f := &p.folds[i]
		oldest := uint64(p.ghist.Bit(HistoryLengths[i]))
		// Unrolled over the row's registers, highest first: a loop over
		// them measured slower than the fixed updates it replaced, even
		// with fewer registers to advance.
		switch p.nregs[i] {
		case 7:
			f[6].UpdateBits(newest, oldest)
			fallthrough
		case 6:
			f[5].UpdateBits(newest, oldest)
			fallthrough
		case 5:
			f[4].UpdateBits(newest, oldest)
			fallthrough
		case 4:
			f[3].UpdateBits(newest, oldest)
			fallthrough
		case 3:
			f[2].UpdateBits(newest, oldest)
			fallthrough
		case 2:
			f[1].UpdateBits(newest, oldest)
			fallthrough
		default:
			f[0].UpdateBits(newest, oldest)
		}
	}
	if p.sc != nil {
		p.sc.pushHistory(p.ghist)
	}
}

// TrackUnconditional implements core.Predictor: unconditional branches
// only advance history state.
func (p *Predictor) TrackUnconditional(b core.Branch) {
	p.pushHistory(b)
}

// Predict implements core.Predictor.
func (p *Predictor) Predict(pc uint64) core.Prediction {
	d := p.Lookup(pc)
	return core.Prediction{
		Taken:       d.FinalTaken,
		ProviderLen: d.ProviderLen,
		Confidence:  d.Confidence,
		FastTaken:   d.BimTaken,
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

// Update implements core.Predictor.
func (p *Predictor) Update(b core.Branch, _ core.Prediction) {
	p.CommitDetail(b, p.last, p.last.TageTaken, p.sc != nil && !p.last.LoopValid)
}

// PatternCount reports the number of live tagged patterns (infinite mode:
// allocated entries; finite mode: entries with a non-zero counter or tag).
func (p *Predictor) PatternCount() int {
	n := 0
	if p.cfg.Infinite {
		for i := range p.inf {
			n += p.inf[i].Len()
		}
		return n
	}
	for _, t := range p.tables {
		for _, e := range t {
			if e.tag != 0 || e.ctr != 0 {
				n++
			}
		}
	}
	return n
}

// LoopDebug exposes the loop predictor entry state for pc (diagnostics).
func (p *Predictor) LoopDebug(pc uint64) string {
	if p.loop == nil {
		return "loop disabled"
	}
	return p.loop.debugState(pc)
}
