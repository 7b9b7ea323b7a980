package llbp

import (
	"llbpx/internal/snapshot"
	"llbpx/internal/tage"
)

// Decode-time allocation caps for unbounded (limit-mode) structures.
const (
	maxInfContexts   = 1 << 24
	maxInfPatterns   = 1 << 24
	maxTrackerCtx    = 1 << 24
	maxTrackerPerCtx = 1 << 22
)

// SaveState writes the rolling context register.
func (r *RCR) SaveState(w *snapshot.Writer) {
	w.Marker("llbp.rcr")
	for _, v := range r.ubs {
		w.U64(v)
	}
	w.Int(r.pos)
}

// LoadState restores the rolling context register.
func (r *RCR) LoadState(sr *snapshot.Reader) {
	sr.Marker("llbp.rcr")
	for i := range r.ubs {
		r.ubs[i] = sr.U64()
	}
	r.pos = int(sr.I64In(0, MaxRCRDepth-1))
}

func (s *PatternSet) saveState(w *snapshot.Writer) {
	w.U64(s.CID)
	w.Bool(s.Dirty)
	if s.overflow != nil {
		w.Bool(true)
		w.Count(s.overflow.Len())
		s.overflow.Range(func(_ uint64, p *Pattern) bool {
			w.U32(p.Tag)
			w.I64(int64(p.LenIdx))
			w.I64(int64(p.Ctr))
			return true
		})
		return
	}
	w.Bool(false)
	w.Count(len(s.slots))
	for _, p := range s.slots {
		w.U32(p.Tag)
		w.I64(int64(p.LenIdx))
		w.I64(int64(p.Ctr))
	}
}

// loadPatternSetBody decodes the fields after the CID into s (already
// reset for its new context), validating tag widths, length indices, and
// counter ranges. It reports whether the decode succeeded.
func loadPatternSetBody(r *snapshot.Reader, cfg *Config, s *PatternSet) bool {
	s.Dirty = r.Bool()
	unbounded := r.Bool()
	if r.Err() != nil {
		return false
	}
	if unbounded != cfg.InfinitePatterns {
		r.Fail("pattern set storage mode mismatch")
		return false
	}
	tagMax := uint64(1)<<cfg.TagBits - 1
	if unbounded {
		n := r.Count(maxInfPatterns)
		for i := 0; i < n && r.Err() == nil; i++ {
			tag := uint32(r.U64Max(tagMax))
			lenIdx := int8(r.I64In(0, tage.NumTables-1))
			ctr := int8(r.I64In(ctrMin, ctrMax))
			if r.Err() != nil {
				return false
			}
			p, inserted := s.overflow.Put(packPatternKey(tag, lenIdx))
			if !inserted {
				r.Fail("duplicate pattern in set %#x", s.CID)
				return false
			}
			*p = Pattern{Tag: tag, LenIdx: lenIdx, Ctr: ctr}
		}
		return r.Err() == nil
	}
	if n := r.Count(len(s.slots)); r.Err() == nil && n != len(s.slots) {
		r.Fail("pattern set has %d slots, want %d", n, len(s.slots))
	}
	for i := range s.slots {
		p := &s.slots[i]
		p.Tag = uint32(r.U64Max(tagMax))
		p.LenIdx = int8(r.I64In(-1, tage.NumTables-1))
		p.Ctr = int8(r.I64In(ctrMin, ctrMax))
	}
	return r.Err() == nil
}

// SaveState writes every resident pattern set. Finite rows are written in
// slice order because the order is replacement state: victim scans walk
// the row front to back.
func (d *ContextDir) SaveState(w *snapshot.Writer) {
	w.Marker("llbp.cd")
	w.U64(d.evicted)
	if d.infMode {
		w.Count(d.infCount)
		for i := 0; i < d.infCount; i++ {
			d.infAt(int32(i)).saveState(w)
		}
		return
	}
	// Iterate the geometry, not the (possibly still unmaterialized)
	// storage: a lazily deferred store serializes exactly like a
	// materialized empty one, so snapshots stay bit-identical regardless
	// of when storage appeared.
	for row := 0; row < d.numSets; row++ {
		n := 0
		if d.rowLen != nil {
			n = int(d.rowLen[row])
		}
		w.Count(n)
		if n > 0 {
			sets := d.rowSets(uint64(row))
			for i := range n {
				sets[i].saveState(w)
			}
		}
	}
}

// LoadState restores the directory into an empty receiver of the same
// geometry; each finite set must land in the row its CID indexes.
func (d *ContextDir) LoadState(r *snapshot.Reader) {
	r.Marker("llbp.cd")
	d.evicted = r.U64()
	if d.infMode {
		n := r.Count(maxInfContexts)
		for i := 0; i < n && r.Err() == nil; i++ {
			cid := r.U64()
			if r.Err() != nil {
				return
			}
			s, existed := d.infInsert(cid)
			if existed {
				r.Fail("duplicate context %#x", cid)
				return
			}
			d.stampProv(s)
			if !loadPatternSetBody(r, d.cfg, s) {
				return
			}
		}
		return
	}
	for rowIdx := 0; rowIdx < d.numSets; rowIdx++ {
		n := r.Count(d.assoc)
		var sets []PatternSet
		for i := 0; i < n && r.Err() == nil; i++ {
			cid := r.U64()
			if r.Err() != nil {
				return
			}
			if cid&d.mask != uint64(rowIdx) {
				r.Fail("context %#x stored in wrong row %d", cid, rowIdx)
				return
			}
			if sets == nil {
				d.ensure()
				sets = d.materializeRow(uint64(rowIdx))
			}
			s := &sets[i]
			s.reset(cid, d.cfg)
			d.stampProv(s)
			if !loadPatternSetBody(r, d.cfg, s) {
				return
			}
			d.rowLen[rowIdx]++
		}
	}
}

// SaveState writes the buffer's prefetch statistics and every resident
// entry's timing metadata. Entries reference pattern sets by CID only —
// the backing set always also lives in the context directory, so
// LoadState re-links through it.
func (b *PatternBuffer) SaveState(w *snapshot.Writer) {
	w.Marker("llbp.pb")
	st := &b.Stats
	w.U64(st.Issued)
	w.U64(st.OnTime)
	w.U64(st.Late)
	w.U64(st.Unused)
	w.U64(st.StoreRd)
	w.U64(st.StoreWr)
	w.U64(st.FPIssued)
	w.U64(st.FPUsed)
	w.Count(b.entries.Len())
	b.entries.Range(func(cid uint64, e *PBEntry) bool {
		w.U64(cid)
		w.I64(e.AvailAt)
		w.I64(e.FetchedAt)
		w.I64(e.LastUse)
		w.Bool(e.Used)
		w.Bool(e.WasLate)
		w.Bool(e.FalsePath)
		w.Bool(e.fromStore)
		return true
	})
}

// LoadState restores the buffer into an empty receiver. resolve maps a
// CID back to its directory-resident pattern set; an unresolvable CID is
// corruption (a PB entry must alias the directory's set object, never own
// a private copy).
func (b *PatternBuffer) LoadState(r *snapshot.Reader, resolve func(uint64) *PatternSet) {
	r.Marker("llbp.pb")
	st := &b.Stats
	st.Issued = r.U64()
	st.OnTime = r.U64()
	st.Late = r.U64()
	st.Unused = r.U64()
	st.StoreRd = r.U64()
	st.StoreWr = r.U64()
	st.FPIssued = r.U64()
	st.FPUsed = r.U64()
	n := r.Count(b.capacity)
	for i := 0; i < n && r.Err() == nil; i++ {
		cid := r.U64()
		availAt := r.I64()
		fetchedAt := r.I64()
		lastUse := r.I64()
		used := r.Bool()
		wasLate := r.Bool()
		falsePath := r.Bool()
		fromStore := r.Bool()
		if r.Err() != nil {
			return
		}
		set := resolve(cid)
		if set == nil {
			r.Fail("pattern buffer entry %#x has no backing pattern set", cid)
			return
		}
		e, inserted := b.entries.Put(cid)
		if !inserted {
			r.Fail("duplicate pattern buffer entry %#x", cid)
			return
		}
		*e = PBEntry{
			Set:       set,
			AvailAt:   availAt,
			FetchedAt: fetchedAt,
			LastUse:   lastUse,
			Used:      used,
			WasLate:   wasLate,
			FalsePath: falsePath,
			fromStore: fromStore,
		}
	}
}

// SaveState writes the per-context useful-pattern accounting.
func (t *UsefulTracker) SaveState(w *snapshot.Writer) {
	w.Marker("llbp.tracker")
	w.Count(len(t.ctxs))
	for i := range t.ctxs {
		c := &t.ctxs[i]
		w.U64(c.cid)
		w.Count(c.pats.Len())
		c.pats.Range(func(key uint64, n *uint64) bool {
			tag, lenIdx := unpackPatternKey(key)
			w.U32(tag)
			w.I64(int64(lenIdx))
			w.U64(*n)
			return true
		})
	}
}

// LoadState restores the accounting into an empty tracker.
func (t *UsefulTracker) LoadState(r *snapshot.Reader) {
	r.Marker("llbp.tracker")
	n := r.Count(maxTrackerCtx)
	for i := 0; i < n && r.Err() == nil; i++ {
		cid := r.U64()
		pi, inserted := t.ctxIdx.Put(cid)
		if !inserted {
			r.Fail("duplicate tracker context %#x", cid)
			return
		}
		*pi = int32(len(t.ctxs))
		t.ctxs = append(t.ctxs, usefulCtx{cid: cid})
		c := &t.ctxs[len(t.ctxs)-1]
		k := r.Count(maxTrackerPerCtx)
		for j := 0; j < k && r.Err() == nil; j++ {
			tag := uint32(r.U64Max(1<<32 - 1))
			lenIdx := int8(r.I64In(0, tage.NumTables-1))
			v, _ := c.pats.Put(packPatternKey(tag, lenIdx))
			*v = r.U64()
		}
	}
}

// SaveState implements snapshot.State for the full LLBP predictor:
// baseline TSL, tag bank, RCR, context directory, pattern buffer, context
// IDs, measurement counters, and adaptation state.
func (p *Predictor) SaveState(w *snapshot.Writer) {
	w.Marker("llbp.predictor")
	w.String(p.cfg.Name)
	p.tsl.SaveState(w)
	p.bank.SaveState(w)
	p.rcr.SaveState(w)
	p.cd.SaveState(w)
	p.pb.SaveState(w)
	w.I64(p.tick)
	w.U64(p.ccid)
	w.U64(p.pcid)
	w.U64(p.prevPCID)
	w.Marker("llbp.stats")
	w.U64(p.st.matches)
	w.U64(p.st.overrides)
	w.U64(p.st.useful)
	w.U64(p.st.harmful)
	w.U64(p.st.allocs)
	for _, n := range p.st.usefulByLen {
		w.U64(n)
	}
	w.U64(p.anatomy.BaseMisses)
	w.U64(p.anatomy.UsefulOverride)
	w.U64(p.anatomy.WrongOverride)
	w.U64(p.anatomy.SilencedRight)
	w.U64(p.anatomy.SilencedWrong)
	w.U64(p.anatomy.NoMatch)
	w.U64(p.anatomy.NoSet)
	w.Int(p.trustWeak)
	w.Int(p.chooser)
	w.U64(p.probeClock)
	w.Bool(p.tracker != nil)
	if p.tracker != nil {
		p.tracker.SaveState(w)
	}
}

// LoadState implements snapshot.State; the receiver must be a cold
// predictor of the same configuration.
func (p *Predictor) LoadState(r *snapshot.Reader) {
	r.Marker("llbp.predictor")
	if name := r.String(256); r.Err() == nil && name != p.cfg.Name {
		r.Fail("snapshot is for configuration %q, not %q", name, p.cfg.Name)
	}
	if r.Err() != nil {
		return
	}
	p.tsl.LoadState(r)
	p.bank.LoadState(r)
	p.rcr.LoadState(r)
	p.cidDelay.Rebuild(&p.rcr, p.cfg.D, p.cfg.W)
	p.cd.LoadState(r)
	p.pb.LoadState(r, p.cd.Lookup)
	p.tick = r.I64In(0, 1<<62)
	p.ccid = r.U64()
	p.pcid = r.U64()
	p.prevPCID = r.U64()
	r.Marker("llbp.stats")
	p.st.matches = r.U64()
	p.st.overrides = r.U64()
	p.st.useful = r.U64()
	p.st.harmful = r.U64()
	p.st.allocs = r.U64()
	for i := range p.st.usefulByLen {
		p.st.usefulByLen[i] = r.U64()
	}
	p.anatomy.BaseMisses = r.U64()
	p.anatomy.UsefulOverride = r.U64()
	p.anatomy.WrongOverride = r.U64()
	p.anatomy.SilencedRight = r.U64()
	p.anatomy.SilencedWrong = r.U64()
	p.anatomy.NoMatch = r.U64()
	p.anatomy.NoSet = r.U64()
	p.trustWeak = int(r.I64In(-8, 7))
	p.chooser = int(r.I64In(chooserMin, chooserMax))
	p.probeClock = r.U64()
	if hasTracker := r.Bool(); r.Err() == nil {
		if hasTracker != (p.tracker != nil) {
			r.Fail("useful tracker presence mismatch")
			return
		}
		if p.tracker != nil {
			p.tracker.LoadState(r)
		}
	}
}
