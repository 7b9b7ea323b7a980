package llbpx

import (
	"llbpx/internal/snapshot"
)

// maxDeepHistory bounds the deep-transition map accepted during decode.
const maxDeepHistory = 1 << 24

// saveState writes the CTT: every entry in row order (order is
// replacement state) plus the transition counters.
func (t *CTT) saveState(w *snapshot.Writer) {
	w.Marker("llbpx.ctt")
	for _, row := range t.sets {
		for i := range row {
			e := &row[i]
			w.U32(e.tag)
			w.I64(int64(e.avgHist))
			w.Bool(e.deep)
			w.U64(uint64(e.age))
			w.Bool(e.valid)
		}
	}
	w.U64(t.tracked)
	w.U64(t.toDeep)
	w.U64(t.toShallow)
	w.Int(t.deepCurrent)
}

// loadState restores the CTT into an empty table of the same geometry.
func (t *CTT) loadState(r *snapshot.Reader) {
	r.Marker("llbpx.ctt")
	for _, row := range t.sets {
		for i := range row {
			e := &row[i]
			e.tag = uint32(r.U64Max(uint64(t.tagMask)))
			e.avgHist = int8(r.I64In(0, int64(t.sat)))
			e.deep = r.Bool()
			e.age = uint8(r.U64Max(3))
			e.valid = r.Bool()
		}
		if r.Err() != nil {
			return
		}
	}
	t.tracked = r.U64()
	t.toDeep = r.U64()
	t.toShallow = r.U64()
	t.deepCurrent = int(r.I64In(0, int64(len(t.sets)*t.assoc)))
}

// SaveState implements snapshot.State for LLBP-X: everything LLBP
// serializes plus the CTT, the dual-depth context IDs, the prefetch-
// context ring for the false-path model, and the deep-transition history.
func (p *Predictor) SaveState(w *snapshot.Writer) {
	w.Marker("llbpx.predictor")
	w.String(p.cfg.Base.Name)
	p.tsl.SaveState(w)
	p.bank.SaveState(w)
	p.rcr.SaveState(w)
	p.cd.SaveState(w)
	p.pb.SaveState(w)
	p.ctt.saveState(w)
	pcidDeep, ccidDeep := p.deepIDs()
	w.I64(p.tick)
	w.U64(p.ccidShallow)
	w.U64(ccidDeep)
	w.U64(p.ccid)
	w.Bool(p.ccidDeepSelected)
	w.U64(p.pcidShallow)
	w.U64(pcidDeep)
	w.U64(p.pcid)
	w.U64(p.prevPCID)
	for _, v := range p.pcidRing {
		w.U64(v)
	}
	w.Int(p.ringPos)
	w.Marker("llbpx.stats")
	w.U64(p.st.matches)
	w.U64(p.st.overrides)
	w.U64(p.st.useful)
	w.U64(p.st.harmful)
	w.U64(p.st.allocs)
	w.U64(p.st.allocDrops)
	for _, n := range p.st.usefulByLen {
		w.U64(n)
	}
	w.U64(p.st.deepPredict)
	w.U64(p.st.fpPrefetch)
	w.Int(p.trustWeak)
	w.Int(p.chooser)
	w.U64(p.probeClock)
	w.Count(len(p.deepHistory))
	for cid := range p.deepHistory {
		w.U64(cid)
	}
	w.Bool(p.tracker != nil)
	if p.tracker != nil {
		p.tracker.SaveState(w)
	}
}

// LoadState implements snapshot.State; the receiver must be a cold
// predictor of the same configuration.
func (p *Predictor) LoadState(r *snapshot.Reader) {
	r.Marker("llbpx.predictor")
	if name := r.String(256); r.Err() == nil && name != p.cfg.Base.Name {
		r.Fail("snapshot is for configuration %q, not %q", name, p.cfg.Base.Name)
	}
	if r.Err() != nil {
		return
	}
	p.tsl.LoadState(r)
	p.bank.LoadState(r)
	p.rcr.LoadState(r)
	p.shallowDelay.Rebuild(&p.rcr, p.cfg.Base.D, p.cfg.WShallow)
	p.cd.LoadState(r)
	p.pb.LoadState(r, p.cd.Lookup)
	p.ctt.loadState(r)
	p.tick = r.I64In(0, 1<<62)
	p.ccidShallow = r.U64()
	p.ccidDeep = r.U64()
	p.ccid = r.U64()
	p.ccidDeepSelected = r.Bool()
	p.pcidShallow = r.U64()
	p.pcidDeep = r.U64()
	p.pcid = r.U64()
	p.prevPCID = r.U64()
	for i := range p.pcidRing {
		p.pcidRing[i] = r.U64()
	}
	p.ringPos = int(r.I64In(0, int64(len(p.pcidRing)-1)))
	r.Marker("llbpx.stats")
	p.st.matches = r.U64()
	p.st.overrides = r.U64()
	p.st.useful = r.U64()
	p.st.harmful = r.U64()
	p.st.allocs = r.U64()
	p.st.allocDrops = r.U64()
	for i := range p.st.usefulByLen {
		p.st.usefulByLen[i] = r.U64()
	}
	p.st.deepPredict = r.U64()
	p.st.fpPrefetch = r.U64()
	p.trustWeak = int(r.I64In(-8, 7))
	p.chooser = int(r.I64In(chooserMin, chooserMax))
	p.probeClock = r.U64()
	n := r.Count(maxDeepHistory)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.deepHistory[r.U64()] = true
	}
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
