package tage

import (
	"slices"

	"llbpx/internal/snapshot"
)

// maxInfEntries bounds the per-table entry count accepted when decoding an
// infinite-mode snapshot, guarding allocation against corrupt counts.
const maxInfEntries = 1 << 26

// SaveState implements snapshot.State: it serializes every learned
// structure — history registers and folds, tagged tables (finite or
// alias-free), bimodal, use-alt and tick counters, the PRNG, and the SC
// and loop components — so LoadState reproduces bit-identical behavior.
// Per-lookup scratch (idx/tag/last) is deliberately excluded: snapshots
// are taken between branches, where the next Lookup rewrites it.
func (p *Predictor) SaveState(w *snapshot.Writer) {
	w.Marker("tage.predictor")
	w.String(p.cfg.Name)
	w.Bool(p.cfg.Infinite)
	p.ghist.SaveState(w)
	p.path.SaveState(w)
	for i := 0; i < NumTables; i++ {
		p.fold(i, foldIdx).SaveState(w)
		p.fold(i, foldTag1).SaveState(w)
		p.fold(i, foldTag2).SaveState(w)
	}
	if p.cfg.Infinite {
		w.Marker("tage.inf")
		for i := 0; i < NumTables; i++ {
			p.fold(i, foldInf1).SaveState(w)
			p.fold(i, foldInf2).SaveState(w)
			w.Count(p.inf[i].Len())
			p.inf[i].Range(func(key uint64, e *entry) bool {
				w.U64(key)
				w.I64(int64(e.ctr))
				w.U64(uint64(e.u))
				return true
			})
		}
	} else {
		w.Marker("tage.tables")
		for i := range p.tables {
			for j := range p.tables[i] {
				e := &p.tables[i][j]
				w.U32(e.tag)
				w.I64(int64(e.ctr))
				w.U64(uint64(e.u))
			}
		}
	}
	w.Marker("tage.bimodal")
	for _, c := range p.bimodal {
		w.I64(int64(c))
	}
	w.Int(p.useAlt)
	w.Int(p.tick)
	w.U64(p.rng.State())
	w.Bool(p.sc != nil)
	if p.sc != nil {
		p.sc.saveState(w)
	}
	w.Bool(p.loop != nil)
	if p.loop != nil {
		p.loop.saveState(w)
	}
}

// LoadState implements snapshot.State. The receiver must be a cold
// predictor of the same configuration; every decoded value is validated
// against the receiver's invariants so a corrupt stream fails instead of
// producing an out-of-range counter.
func (p *Predictor) LoadState(r *snapshot.Reader) {
	r.Marker("tage.predictor")
	if name := r.String(256); r.Err() == nil && name != p.cfg.Name {
		r.Fail("snapshot is for configuration %q, not %q", name, p.cfg.Name)
	}
	if inf := r.Bool(); r.Err() == nil && inf != p.cfg.Infinite {
		r.Fail("finite/infinite mode mismatch")
	}
	if r.Err() != nil {
		return
	}
	p.ghist.LoadState(r)
	p.path.LoadState(r)
	for i := 0; i < NumTables; i++ {
		p.loadFold(r, i, foldIdx)
		p.loadFold(r, i, foldTag1)
		p.loadFold(r, i, foldTag2)
	}
	ctrMin, ctrMax := int64(p.ctrMin()), int64(p.ctrMax())
	if p.cfg.Infinite {
		r.Marker("tage.inf")
		for i := 0; i < NumTables && r.Err() == nil; i++ {
			p.loadFold(r, i, foldInf1)
			p.loadFold(r, i, foldInf2)
			n := r.Count(maxInfEntries)
			if r.Err() != nil {
				return
			}
			p.inf[i].Reserve(n)
			for j := 0; j < n && r.Err() == nil; j++ {
				key := r.U64()
				ctr := int8(r.I64In(ctrMin, ctrMax))
				u := uint8(r.U64Max(3))
				if r.Err() != nil {
					return
				}
				e, inserted := p.inf[i].Put(key)
				if !inserted {
					r.Fail("duplicate infinite-table key")
					return
				}
				e.ctr, e.u = ctr, u
			}
		}
	} else {
		r.Marker("tage.tables")
		tagMax := uint64(1)
		for i := range p.tables {
			tb := uint(p.cfg.tagBits(i))
			tagMax = uint64(1)<<tb - 1
			for j := range p.tables[i] {
				e := &p.tables[i][j]
				e.tag = uint32(r.U64Max(tagMax))
				e.ctr = int8(r.I64In(ctrMin, ctrMax))
				e.u = uint8(r.U64Max(3))
			}
			if r.Err() != nil {
				return
			}
		}
	}
	r.Marker("tage.bimodal")
	for i := range p.bimodal {
		p.bimodal[i] = int8(r.I64In(-2, 1))
	}
	p.useAlt = int(r.I64In(-8, 7))
	p.tick = int(r.I64In(0, 1<<62))
	p.rng.Seed(r.U64())
	if hasSC := r.Bool(); r.Err() == nil {
		if hasSC != (p.sc != nil) {
			r.Fail("statistical corrector presence mismatch")
			return
		}
		if p.sc != nil {
			p.sc.loadState(r)
		}
	}
	if hasLoop := r.Bool(); r.Err() == nil {
		if hasLoop != (p.loop != nil) {
			r.Fail("loop predictor presence mismatch")
			return
		}
		if p.loop != nil {
			p.loop.loadState(r)
		}
	}
}

// loadFold restores logical fold k of table i. Folds are restored in
// layout order, so a fold sharing an earlier fold's register finds that
// register already loaded and must carry the same value; the format keeps
// one value per logical fold. (Absent folds read slot 0, the index fold's
// register, but are never restored.)
func (p *Predictor) loadFold(r *snapshot.Reader, i, k int) {
	f := p.fold(i, k)
	if !slices.Contains(p.slot[i][:k], p.slot[i][k]) {
		f.LoadState(r)
		return
	}
	v := *f
	v.LoadState(r)
	if r.Err() == nil && v.Value() != f.Value() {
		r.Fail("table %d: history folds of equal width disagree", i)
	}
}

func (c *corrector) saveState(w *snapshot.Writer) {
	w.Marker("tage.sc")
	for _, v := range c.bias {
		w.I64(int64(v))
	}
	for i := range c.gehl {
		c.gehlFold[i].SaveState(w)
		for _, v := range c.gehl[i] {
			w.I64(int64(v))
		}
	}
	w.Bool(c.localHist != nil)
	if c.localHist != nil {
		for _, h := range c.localHist {
			w.U64(uint64(h))
		}
		for i := range c.localGehl {
			for _, v := range c.localGehl[i] {
				w.I64(int64(v))
			}
		}
	}
	w.Int(c.threshold)
	w.Int(c.thrCtr)
}

func (c *corrector) loadState(r *snapshot.Reader) {
	r.Marker("tage.sc")
	for i := range c.bias {
		c.bias[i] = int8(r.I64In(scCtrMin, scCtrMax))
	}
	for i := range c.gehl {
		c.gehlFold[i].LoadState(r)
		for j := range c.gehl[i] {
			c.gehl[i][j] = int8(r.I64In(scCtrMin, scCtrMax))
		}
	}
	if hasLocal := r.Bool(); r.Err() == nil && hasLocal != (c.localHist != nil) {
		r.Fail("local SC component presence mismatch")
	}
	if r.Err() != nil {
		return
	}
	if c.localHist != nil {
		for i := range c.localHist {
			c.localHist[i] = uint16(r.U64Max(1<<11 - 1))
		}
		for i := range c.localGehl {
			for j := range c.localGehl[i] {
				c.localGehl[i][j] = int8(r.I64In(scCtrMin, scCtrMax))
			}
		}
	}
	c.threshold = int(r.I64In(scThrMin, scThrMax))
	c.thrCtr = int(r.I64In(-16, 16))
}

func (l *loopPredictor) saveState(w *snapshot.Writer) {
	w.Marker("tage.loop")
	for s := range l.sets {
		for i := range l.sets[s] {
			e := &l.sets[s][i]
			w.U64(uint64(e.tag))
			w.U64(uint64(e.past))
			w.U64(uint64(e.current))
			w.U64(uint64(e.conf))
			w.U64(uint64(e.age))
			w.Bool(e.dir)
			w.Bool(e.valid)
		}
	}
	w.U64(uint64(l.seed))
}

func (l *loopPredictor) loadState(r *snapshot.Reader) {
	r.Marker("tage.loop")
	for s := range l.sets {
		for i := range l.sets[s] {
			e := &l.sets[s][i]
			e.tag = uint16(r.U64Max(1<<loopTagBits - 1))
			e.past = uint16(r.U64Max(loopIterMax))
			e.current = uint16(r.U64Max(loopIterMax))
			e.conf = uint8(r.U64Max(loopConfMax))
			e.age = uint8(r.U64Max(255))
			e.dir = r.Bool()
			e.valid = r.Bool()
		}
	}
	l.seed = uint32(r.U64Max(1<<32 - 1))
}

// SaveState writes the bank's folds; geometry is configuration. The
// registers live in the owning predictor, possibly shared with its own
// folds, but the bank's values stay in its own snapshot section, so the
// byte format does not depend on who advances them or which are shared.
func (b *TagBank) SaveState(w *snapshot.Writer) {
	w.Marker("tage.tagbank")
	for i := 0; i < NumTables; i++ {
		b.p.fold(i, foldBank1).SaveState(w)
		b.p.fold(i, foldBank2).SaveState(w)
	}
}

// LoadState restores the bank's folds, after the owning predictor's.
func (b *TagBank) LoadState(r *snapshot.Reader) {
	r.Marker("tage.tagbank")
	for i := 0; i < NumTables; i++ {
		b.p.loadFold(r, i, foldBank1)
		b.p.loadFold(r, i, foldBank2)
	}
}
