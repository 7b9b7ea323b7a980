package llbp

import (
	"sync/atomic"
	"unsafe"

	"llbpx/internal/oatable"
	"llbpx/internal/patternpool"
	"llbpx/internal/tage"
)

// Pattern is one second-level TAGE pattern: a partial tag, the history
// length it was formed over (as an index into tage.HistoryLengths), and a
// signed 3-bit direction counter.
type Pattern struct {
	Tag    uint32
	LenIdx int8 // -1 marks an empty slot
	Ctr    int8
}

// Valid reports whether the slot holds a pattern.
func (p Pattern) Valid() bool { return p.LenIdx >= 0 }

// Taken is the predicted direction.
func (p Pattern) Taken() bool { return p.Ctr >= 0 }

// Confidence is |2*Ctr+1|: 1 = just allocated, 7 = saturated.
func (p Pattern) Confidence() int {
	v := 2*int(p.Ctr) + 1
	if v < 0 {
		v = -v
	}
	return v
}

// Confident reports whether the counter is strong enough to count toward
// the replacement metadata and the LLBP-X overflow signal.
func (p Pattern) Confident() bool { return p.Confidence() >= 5 }

const (
	ctrMax = 3
	ctrMin = -4
)

// CtrUpdate moves the pattern counter toward the outcome.
func (p *Pattern) CtrUpdate(taken bool) {
	if taken {
		if p.Ctr < ctrMax {
			p.Ctr++
		}
	} else if p.Ctr > ctrMin {
		p.Ctr--
	}
}

// WeakInit resets the counter to weakly taken or not-taken.
func (p *Pattern) WeakInit(taken bool) {
	if taken {
		p.Ctr = 0
	} else {
		p.Ctr = -1
	}
}

// packPatternKey packs a (tag, lenIdx) pattern identity into the uint64 key
// space of the open-addressed tables.
func packPatternKey(tag uint32, lenIdx int8) uint64 {
	return uint64(tag)<<8 | uint64(uint8(lenIdx))
}

// unpackPatternKey inverts packPatternKey.
func unpackPatternKey(key uint64) (tag uint32, lenIdx int8) {
	return uint32(key >> 8), int8(uint8(key))
}

// PatternSet holds the patterns of one program context. With design
// tweaks enabled the fixed slots are grouped into histogram buckets (four
// slots per history-length range); without them the set is a flat
// associative array, and in the +Inf Patterns limit mode it grows without
// bound in an open-addressed table keyed by (tag, lenIdx).
type PatternSet struct {
	CID   uint64
	slots []Pattern
	// unbounded (limit mode) storage, keyed by packPatternKey.
	overflow *oatable.Map[Pattern]
	// prov is the slowcheck-only namespace-provenance stamp (zero-sized
	// in normal builds); see provcheck_on.go.
	prov psProv
	// Dirty marks modifications since the set was fetched into the PB.
	Dirty bool
}

// newPatternSet returns an empty set for cid shaped by cfg.
func newPatternSet(cid uint64, cfg *Config) *PatternSet {
	s := &PatternSet{CID: cid}
	if cfg.InfinitePatterns {
		s.overflow = oatable.NewMap[Pattern](cfg.PatternsPerSet)
		return s
	}
	s.slots = make([]Pattern, cfg.PatternsPerSet)
	for i := range s.slots {
		s.slots[i].LenIdx = -1
	}
	return s
}

// Lookup returns the valid pattern matching (tag, lenIdx), or nil.
func (s *PatternSet) Lookup(tag uint32, lenIdx int) *Pattern {
	if s.overflow != nil {
		return s.overflow.Get(packPatternKey(tag, int8(lenIdx)))
	}
	for i := range s.slots {
		p := &s.slots[i]
		if p.Valid() && int(p.LenIdx) == lenIdx && p.Tag == tag {
			return p
		}
	}
	return nil
}

// ConfidentCount returns the number of confident patterns, the replacement
// metadata the context directory and the LLBP-X overflow signal use.
func (s *PatternSet) ConfidentCount() int {
	n := 0
	if s.overflow != nil {
		s.overflow.Range(func(_ uint64, p *Pattern) bool {
			if p.Confident() {
				n++
			}
			return true
		})
		return n
	}
	for i := range s.slots {
		if s.slots[i].Valid() && s.slots[i].Confident() {
			n++
		}
	}
	return n
}

// Size returns the number of valid patterns in the set.
func (s *PatternSet) Size() int {
	if s.overflow != nil {
		return s.overflow.Len()
	}
	n := 0
	for i := range s.slots {
		if s.slots[i].Valid() {
			n++
		}
	}
	return n
}

// Patterns calls fn for every valid pattern in the set.
func (s *PatternSet) Patterns(fn func(*Pattern)) {
	if s.overflow != nil {
		s.overflow.Range(func(_ uint64, p *Pattern) bool {
			fn(p)
			return true
		})
		return
	}
	for i := range s.slots {
		if s.slots[i].Valid() {
			fn(&s.slots[i])
		}
	}
}

// BestMatch returns the longest pattern whose tag matches tags at its own
// history index, or (nil, -1). This is the hot-path form of the Patterns
// closure walk: one explicit pass, no callback.
func (s *PatternSet) BestMatch(tags *[tage.NumTables]uint32) (best *Pattern, bestLen int) {
	bestLen = -1
	if s.overflow != nil {
		s.overflow.Range(func(_ uint64, p *Pattern) bool {
			li := int(p.LenIdx)
			if p.Tag == tags[li] && li > bestLen {
				best, bestLen = p, li
			}
			return true
		})
		return best, bestLen
	}
	for i := range s.slots {
		p := &s.slots[i]
		if !p.Valid() {
			continue
		}
		li := int(p.LenIdx)
		if p.Tag == tags[li] && li > bestLen {
			best, bestLen = p, li
		}
	}
	return best, bestLen
}

// Allocate installs a new weak pattern for (tag, lenIdx), replacing the
// least confident pattern in the target region: the slot range of the
// pattern's bucket when bucketing is active, or any slot of the flat set.
// bucket is the bucket index (ignored for flat/unbounded sets).
func (s *PatternSet) Allocate(tag uint32, lenIdx int, taken bool, bucket, buckets int) {
	s.Dirty = true
	if s.overflow != nil {
		p, _ := s.overflow.Put(packPatternKey(tag, int8(lenIdx)))
		*p = Pattern{Tag: tag, LenIdx: int8(lenIdx)}
		p.WeakInit(taken)
		return
	}
	lo, hi := 0, len(s.slots)
	if buckets > 1 {
		per := len(s.slots) / buckets
		lo = bucket * per
		hi = lo + per
	}
	victim, best, free := -1, 1<<30, -1
	for i := lo; i < hi; i++ {
		p := &s.slots[i]
		// An existing (tag, lenIdx) pattern is re-initialized in place; a
		// second slot for the same key would shadow this one on Lookup.
		if p.Valid() && int(p.LenIdx) == lenIdx && p.Tag == tag {
			p.WeakInit(taken)
			return
		}
		if !p.Valid() {
			if free < 0 {
				free = i
			}
			continue
		}
		if c := p.Confidence(); c < best {
			best, victim = c, i
		}
	}
	if free >= 0 {
		victim = free
	} else if victim < 0 {
		victim = lo
	}
	p := &s.slots[victim]
	p.Tag = tag
	p.LenIdx = int8(lenIdx)
	p.WeakInit(taken)
}

// reset re-initializes a recycled set for a new context, keeping its
// storage (the slot view into the directory's backing array, or the
// overflow table's capacity).
func (s *PatternSet) reset(cid uint64, cfg *Config) {
	s.CID = cid
	s.Dirty = false
	if cfg.InfinitePatterns {
		if s.overflow == nil {
			s.overflow = oatable.NewMap[Pattern](cfg.PatternsPerSet)
		} else {
			s.overflow.Clear()
		}
		return
	}
	if s.slots == nil {
		s.slots = make([]Pattern, cfg.PatternsPerSet)
	}
	for i := range s.slots {
		s.slots[i] = Pattern{LenIdx: -1}
	}
}

// infChunkSize is the slab granularity of unbounded-context storage. Chunks
// are allocated whole and never move, so *PatternSet pointers handed to the
// pattern buffer stay valid as the directory grows.
const infChunkSize = 1024

// maxChunkRows is the number of directory rows materialized together in
// one row chunk (fewer when the whole directory has fewer rows).
const maxChunkRows = 32

// ContextDir combines the paper's context directory (CD) and pattern
// store (PS): a set-associative directory from context IDs to pattern
// sets. Replacement keeps the sets with the most confident patterns (the
// paper's policy), evicting the least-trained set of the index set.
//
// The finite geometry is fixed hardware sized for a whole server program,
// but one session uses a few percent of its contexts, so storage is
// materialized row by row: rowSlot maps each row to its place in a list
// of row chunks, each holding up to maxChunkRows rows of assoc sets (a
// row's live sets are its first rowLen[r], in replacement order) and
// their pattern slots. A row gets its place on its first insert (or when
// a snapshot load reaches it) and keeps it until Release; eviction
// recycles the victim's storage in place. Unbounded modes grow a chunked
// slab indexed by an open-addressed cid table. Once the rows a stream
// touches exist, neither mode allocates on the prediction path.
//
// A directory attached to a patternpool namespace charges the nominal
// geometry (slabBytes) against the pool's budget on its first insert — a
// reservation, so spill decisions do not depend on how many rows a
// session happened to touch — and Release hands its chunk list to the
// pool's slab arena as one bundle, sized in real bytes, from which the
// next directory of the same shape draws chunks before it allocates.
// Every set is reset before it becomes live, so recycled storage is a
// private view bit-identical to a freshly allocated one. A released
// directory re-materializes privately if used again.
type ContextDir struct {
	// Finite geometry.
	rowSlot    []int32 // per row: 1 + its index among materialized rows, 0 = absent
	rowLen     []int32 // per row: live sets
	chunks     []rowChunk
	rows       int  // materialized rows
	chunkShift uint // log2 of the rows per chunk
	assoc      int
	numSets    int
	mask       uint64

	// InfiniteContexts / NoContext mode.
	infMode   bool
	infChunks [][]PatternSet
	infCount  int
	infIdx    oatable.Map[int32]

	cfg     *Config
	evicted uint64 // count of discarded pattern sets

	ns      *patternpool.Namespace // nil = private store
	charged int64                  // bytes currently charged to ns
	provID  uint64                 // unique owner stamp for slowcheck provenance
}

// rowChunk is the storage of 1<<chunkShift directory rows: assoc sets per
// row and, outside the +Inf Patterns limit mode, each set's pattern
// slots (sets[i].slots views pats).
type rowChunk struct {
	sets []PatternSet
	pats []Pattern
}

// provSeq hands out directory provenance IDs; pool-attached directories
// override theirs with the namespace's pool-unique ID.
var provSeq atomic.Uint64

// Byte sizes used for pool budget accounting.
const (
	patternBytes    = int64(unsafe.Sizeof(Pattern{}))
	patternSetBytes = int64(unsafe.Sizeof(PatternSet{}))
	rowLenBytes     = int64(unsafe.Sizeof(int32(0)))
)

// Slab classes for the pool arena. Finite-geometry slabs embed the exact
// shape so recycled chunks always fit; the infinite-mode chunk class is
// shape-independent (chunks have a fixed size).
const infChunkClass = uint64(1)

func (d *ContextDir) slabClass() uint64 {
	c := uint64(d.numSets)<<20 | uint64(d.assoc)<<10 | uint64(d.cfg.PatternsPerSet)<<1 | 2
	if d.cfg.InfinitePatterns {
		c |= 1
	}
	return c
}

// dirSlabs is the finite-geometry storage bundle recycled through the
// pool arena: a directory's row index and its chunk list.
type dirSlabs struct {
	rowIdx []int32 // rowSlot and rowLen, back to back
	chunks []rowChunk
}

// slabBytes is the nominal size of the finite geometry — every row
// materialized — which is what an attached directory charges.
func (d *ContextDir) slabBytes() int64 {
	n := int64(d.numSets * d.assoc)
	b := n*patternSetBytes + int64(d.numSets)*rowLenBytes
	if !d.cfg.InfinitePatterns {
		b += n * int64(d.cfg.PatternsPerSet) * patternBytes
	}
	return b
}

// materializedBytes is the real size of the finite storage: the row
// index plus every chunk held, used or not.
func (d *ContextDir) materializedBytes() int64 {
	if d.rowSlot == nil {
		return 0
	}
	sets := int64(len(d.chunks)*d.assoc) << d.chunkShift
	b := 2*int64(d.numSets)*rowLenBytes + sets*patternSetBytes
	if !d.cfg.InfinitePatterns {
		b += sets * int64(d.cfg.PatternsPerSet) * patternBytes
	}
	return b
}

// NewContextDir builds the directory for cfg. Storage is deferred to the
// first insert so an attached pool namespace can supply it.
func NewContextDir(cfg *Config) *ContextDir {
	d := &ContextDir{cfg: cfg, provID: provSeq.Add(1)}
	if cfg.InfiniteContexts || cfg.NoContext {
		d.infMode = true
		return d
	}
	numSets := 1
	for numSets*2*cfg.CDAssoc <= cfg.NumContexts {
		numSets *= 2
	}
	d.numSets = numSets
	d.assoc = cfg.NumContexts / numSets
	d.mask = uint64(numSets - 1)
	for 1<<(d.chunkShift+1) <= min(maxChunkRows, numSets) {
		d.chunkShift++
	}
	return d
}

// AttachPool backs the directory's storage with a shared pool namespace.
// Must be called before the first insert (serve attaches at session
// construction); attaching after materialization leaves the existing
// private storage in place and only affects future infinite-mode growth.
func (d *ContextDir) AttachPool(ns *patternpool.Namespace) {
	d.ns = ns
	if ns != nil {
		d.provID = ns.ProvenanceID()
	}
}

// ensure materializes the finite geometry's row index, adopting a
// recycled bundle's index and chunk list when the pool arena has one,
// and charges the nominal geometry to an attached namespace. Rows get
// their storage later, one at a time, from materializeRow.
func (d *ContextDir) ensure() {
	if d.rowSlot != nil || d.infMode {
		return
	}
	var idx []int32
	if d.ns != nil {
		if v, ok := d.ns.GetSlab(d.slabClass()); ok {
			sl := v.(dirSlabs)
			idx, d.chunks = sl.rowIdx, sl.chunks
			clear(idx)
		}
	}
	if idx == nil {
		idx = make([]int32, 2*d.numSets)
	}
	d.rowSlot, d.rowLen = idx[:d.numSets], idx[d.numSets:]
	if d.ns != nil {
		b := d.slabBytes()
		d.charged += b
		d.ns.Charge(b)
	}
}

// rowSets returns the storage of a materialized row (nil if absent): its
// assoc sets, of which the first rowLen[row] are live.
func (d *ContextDir) rowSets(row uint64) []PatternSet {
	k := int(d.rowSlot[row]) - 1
	if k < 0 {
		return nil
	}
	c := &d.chunks[k>>d.chunkShift]
	base := (k & (1<<d.chunkShift - 1)) * d.assoc
	return c.sets[base : base+d.assoc : base+d.assoc]
}

// materializeRow gives row the next place in the chunk list, adding a
// chunk when the held ones are full. Sets are handed out unreset: each
// is reset before it becomes live.
func (d *ContextDir) materializeRow(row uint64) []PatternSet {
	if d.rows == len(d.chunks)<<d.chunkShift {
		d.chunks = append(d.chunks, d.newChunk())
	}
	d.rows++
	d.rowSlot[row] = int32(d.rows)
	return d.rowSets(row)
}

// newChunk allocates one row chunk with its slot views in place.
func (d *ContextDir) newChunk() rowChunk {
	n := d.assoc << d.chunkShift
	c := rowChunk{sets: make([]PatternSet, n)}
	if !d.cfg.InfinitePatterns {
		pps := d.cfg.PatternsPerSet
		c.pats = make([]Pattern, n*pps)
		for i := range c.sets {
			c.sets[i].slots = c.pats[i*pps : (i+1)*pps : (i+1)*pps]
		}
	}
	return c
}

// Release returns the directory's storage (to the pool arena when
// attached) and drops its budget charge. The directory remains usable —
// the next insert re-materializes privately — but all previously handed
// out PatternSet pointers are invalid; callers must drop their pattern
// buffer first. Idempotent.
func (d *ContextDir) Release() {
	ns := d.ns
	if d.rowSlot != nil {
		if ns != nil {
			idx := d.rowSlot[:2*d.numSets]
			ns.PutSlab(d.slabClass(), dirSlabs{rowIdx: idx, chunks: d.chunks}, d.materializedBytes())
		}
		d.rowSlot, d.rowLen, d.chunks, d.rows = nil, nil, nil, 0
	}
	if d.infMode && d.infCount > 0 {
		if ns != nil {
			for _, chunk := range d.infChunks {
				ns.PutSlab(infChunkClass, chunk, int64(infChunkSize)*patternSetBytes)
			}
		}
		d.infChunks = nil
		d.infCount = 0
		d.infIdx.Clear()
	}
	if ns != nil {
		ns.Uncharge(d.charged)
	}
	d.charged = 0
	d.ns = nil
}

// infAt returns the slab slot at index idx.
func (d *ContextDir) infAt(idx int32) *PatternSet {
	return &d.infChunks[int(idx)/infChunkSize][int(idx)%infChunkSize]
}

// infInsert returns the set for cid, appending a slab slot when absent.
func (d *ContextDir) infInsert(cid uint64) (s *PatternSet, existed bool) {
	pi, inserted := d.infIdx.Put(cid)
	if !inserted {
		return d.infAt(*pi), true
	}
	if d.infCount%infChunkSize == 0 {
		var chunk []PatternSet
		if d.ns != nil {
			if v, ok := d.ns.GetSlab(infChunkClass); ok {
				chunk = v.([]PatternSet)
				for i := range chunk {
					chunk[i] = PatternSet{}
				}
			}
		}
		if chunk == nil {
			chunk = make([]PatternSet, infChunkSize)
		}
		if d.ns != nil {
			b := int64(infChunkSize) * patternSetBytes
			d.charged += b
			d.ns.Charge(b)
		}
		d.infChunks = append(d.infChunks, chunk)
	}
	idx := int32(d.infCount)
	d.infCount++
	*pi = idx
	s = d.infAt(idx)
	s.reset(cid, d.cfg)
	return s, false
}

// Capacity returns the number of contexts the directory can track
// (0 = unbounded).
func (d *ContextDir) Capacity() int {
	if d.infMode {
		return 0
	}
	return d.numSets * d.assoc
}

// Live returns the number of resident pattern sets.
func (d *ContextDir) Live() int {
	if d.infMode {
		return d.infCount
	}
	n := 0
	for _, l := range d.rowLen {
		n += int(l)
	}
	return n
}

// StoreBytes returns the bytes this directory's storage accounts for: the
// charge to an attached namespace, otherwise the nominal finite geometry
// once materialized, or the unbounded slab (0 before first use or after
// Release).
func (d *ContextDir) StoreBytes() int64 {
	if d.ns != nil {
		return d.charged
	}
	if d.infMode {
		return int64(len(d.infChunks)) * int64(infChunkSize) * patternSetBytes
	}
	if d.rowSlot == nil {
		return 0
	}
	return d.slabBytes()
}

// Evicted returns the number of pattern sets discarded by replacement.
func (d *ContextDir) Evicted() uint64 { return d.evicted }

// Lookup returns the pattern set for cid, or nil.
func (d *ContextDir) Lookup(cid uint64) *PatternSet {
	if d.infMode {
		if pi := d.infIdx.Get(cid); pi != nil {
			s := d.infAt(*pi)
			d.checkProv(s)
			return s
		}
		return nil
	}
	if d.rowSlot == nil {
		return nil
	}
	row := cid & d.mask
	sets := d.rowSets(row)
	for i := 0; i < int(d.rowLen[row]); i++ {
		if s := &sets[i]; s.CID == cid {
			d.checkProv(s)
			return s
		}
	}
	return nil
}

// Insert creates (or returns the existing) pattern set for cid, evicting
// the least-confident set of the row when full. evictedCID reports the
// context whose set was discarded (valid only when evicted is true), so
// the caller can invalidate stale pattern-buffer entries. The victim's
// storage is recycled in place: the caller must drop stale PB entries
// before the next prediction touches them.
func (d *ContextDir) Insert(cid uint64) (s *PatternSet, evictedCID uint64, evicted bool) {
	if s := d.Lookup(cid); s != nil {
		return s, 0, false
	}
	if d.infMode {
		s, _ := d.infInsert(cid)
		d.stampProv(s)
		return s, 0, false
	}
	d.ensure()
	row := cid & d.mask
	sets := d.rowSets(row)
	if sets == nil {
		sets = d.materializeRow(row)
	}
	if n := int(d.rowLen[row]); n < d.assoc {
		s = &sets[n]
		s.reset(cid, d.cfg)
		d.stampProv(s)
		d.rowLen[row]++
		return s, 0, false
	}
	// Evict the set with the fewest confident patterns (paper's policy:
	// favor sets with more high-confidence patterns).
	victim, best := 0, 1<<30
	for i := range sets {
		if c := sets[i].ConfidentCount(); c < best {
			best, victim = c, i
		}
	}
	s = &sets[victim]
	evictedCID = s.CID
	s.reset(cid, d.cfg)
	d.stampProv(s)
	d.evicted++
	return s, evictedCID, true
}

// PBEntry is one pattern-buffer slot with its prefetch timing metadata.
type PBEntry struct {
	Set       *PatternSet
	AvailAt   int64 // tick at which the prefetched data is usable
	FetchedAt int64
	LastUse   int64 // LRU stamp
	Used      bool  // matched at least one prediction
	WasLate   bool  // a prediction wanted it before it arrived
	FalsePath bool  // brought in by a modeled wrong-path prefetch
	fromStore bool  // filled by a PS read (vs created fresh on allocation)
}

// PrefetchStats aggregates the pattern buffer's timeliness accounting
// (Figure 14a).
type PrefetchStats struct {
	Issued   uint64 // PS->PB fills
	OnTime   uint64 // used, and available when first needed
	Late     uint64 // used, but a prediction wanted it before arrival
	Unused   uint64 // evicted without serving a prediction
	StoreRd  uint64 // pattern store reads (bandwidth)
	StoreWr  uint64 // pattern store writebacks (bandwidth)
	FPIssued uint64 // fills attributed to modeled false-path fetches
	FPUsed   uint64 // false-path fills that ended up used
}

// PatternBuffer is the small in-core cache of pattern sets predictions are
// served from. It tracks prefetch timeliness and PS<->PB traffic. Entries
// live inline in an open-addressed table sized once at construction;
// steady-state fill/evict churn never allocates. Entry pointers are
// invalidated by Fill, Drop, and eviction.
type PatternBuffer struct {
	entries  oatable.Map[PBEntry]
	capacity int
	Stats    PrefetchStats
}

// NewPatternBuffer returns an empty buffer holding up to capacity sets.
func NewPatternBuffer(capacity int) *PatternBuffer {
	b := &PatternBuffer{capacity: capacity}
	b.entries.Reserve(capacity + 1)
	return b
}

// Get returns the buffered entry for cid, or nil, without touching LRU
// state.
func (b *PatternBuffer) Get(cid uint64) *PBEntry { return b.entries.Get(cid) }

// Fill inserts the pattern set for cid, arriving at availAt. fromStore
// marks a genuine PS read (counted as bandwidth); falsePath marks a
// modeled wrong-path fetch.
func (b *PatternBuffer) Fill(cid uint64, set *PatternSet, now, availAt int64, fromStore, falsePath bool) *PBEntry {
	if e := b.entries.Get(cid); e != nil {
		e.LastUse = now
		return e
	}
	if b.entries.Len() >= b.capacity {
		b.evictLRU(now)
	}
	e, _ := b.entries.Put(cid)
	*e = PBEntry{Set: set, AvailAt: availAt, FetchedAt: now, LastUse: now, FalsePath: falsePath, fromStore: fromStore}
	if fromStore {
		b.Stats.Issued++
		b.Stats.StoreRd++
		if falsePath {
			b.Stats.FPIssued++
		}
	}
	return e
}

// Drop removes cid from the buffer without writeback accounting (used when
// the directory invalidates a context).
func (b *PatternBuffer) Drop(cid uint64) { b.entries.Delete(cid) }

// Reset empties the buffer, dropping every entry without retiring stats.
// Used when the backing pattern store is released: buffered sets alias
// directory storage, so they must not outlive it.
func (b *PatternBuffer) Reset() { b.entries.Clear() }

func (b *PatternBuffer) evictLRU(now int64) {
	var victimCID uint64
	var victimLastUse int64
	first := true
	// The CID tie-break keeps victim selection independent of table
	// iteration order: same-tick fills (e.g. paired false-path prefetches)
	// must evict identically in a restored and a never-snapshotted buffer.
	b.entries.Range(func(cid uint64, e *PBEntry) bool {
		if first || e.LastUse < victimLastUse ||
			(e.LastUse == victimLastUse && cid < victimCID) {
			victimCID, victimLastUse, first = cid, e.LastUse, false
		}
		return true
	})
	if first {
		return
	}
	b.retire(b.entries.Get(victimCID))
	b.entries.Delete(victimCID)
}

// retire folds an entry's lifetime into the stats and writes back dirty
// sets.
func (b *PatternBuffer) retire(e *PBEntry) {
	if e.fromStore {
		switch {
		case !e.Used:
			b.Stats.Unused++
		case e.WasLate:
			b.Stats.Late++
		default:
			b.Stats.OnTime++
		}
		if e.Used && e.FalsePath {
			b.Stats.FPUsed++
		}
	}
	if e.Set.Dirty {
		b.Stats.StoreWr++
		e.Set.Dirty = false
	}
}

// FlushStats retires every resident entry's accounting (end of run).
func (b *PatternBuffer) FlushStats() {
	b.entries.Range(func(_ uint64, e *PBEntry) bool {
		b.retire(e)
		// Avoid double counting if called twice.
		e.fromStore = false
		return true
	})
}

// Len returns the number of resident pattern sets.
func (b *PatternBuffer) Len() int { return b.entries.Len() }

// BucketOf returns the bucket index of lenIdx within the active history
// list (four history lengths per bucket in the default design).
func BucketOf(active []int, buckets int, lenIdx int) int {
	if buckets <= 1 {
		return 0
	}
	per := (len(active) + buckets - 1) / buckets
	for i, l := range active {
		if l == lenIdx {
			return i / per
		}
	}
	return 0
}

// NextActiveLen returns the smallest active history index strictly greater
// than lenIdx, or -1 if none.
func NextActiveLen(active []int, lenIdx int) int {
	for _, l := range active {
		if l > lenIdx {
			return l
		}
	}
	return -1
}

// lenFromBits maps a history length in bits to its index, returning -1 for
// non-table lengths.
func lenFromBits(bits int) int { return tage.HistoryIndex(bits) }

// ForEach visits every resident pattern set (diagnostics and tests).
func (d *ContextDir) ForEach(fn func(*PatternSet)) {
	if d.infMode {
		for i := 0; i < d.infCount; i++ {
			fn(d.infAt(int32(i)))
		}
		return
	}
	for row, n := range d.rowLen {
		sets := d.rowSets(uint64(row))
		for i := range n {
			fn(&sets[i])
		}
	}
}
