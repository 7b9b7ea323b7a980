package history

import "llbpx/internal/snapshot"

// SaveState writes the direction-bit ring (packed 8 bits per byte) and
// the ring pointer.
func (g *Global) SaveState(w *snapshot.Writer) {
	w.Marker("history.global")
	w.Int(g.ptr)
	packed := make([]byte, (len(g.bits)+7)/8)
	for i, b := range g.bits {
		packed[i/8] |= (b & 1) << (i % 8)
	}
	w.Bytes(packed)
}

// LoadState restores the ring; the receiver's capacity fixes the expected
// geometry, so a snapshot from a different configuration fails cleanly.
func (g *Global) LoadState(r *snapshot.Reader) {
	r.Marker("history.global")
	ptr := r.Int()
	wantLen := (len(g.bits) + 7) / 8
	packed := r.Bytes(wantLen)
	if r.Err() != nil {
		return
	}
	if ptr < 0 || ptr >= len(g.bits) || len(packed) != wantLen {
		r.Fail("global history geometry mismatch")
		return
	}
	g.ptr = ptr
	for i := range g.bits {
		g.bits[i] = (packed[i/8] >> (i % 8)) & 1
	}
}

// SaveState writes the current compressed value; the fold geometry is
// configuration, not state.
func (f *Folded) SaveState(w *snapshot.Writer) { w.U64(uint64(f.comp)) }

// LoadState restores the compressed value, rejecting out-of-range bits.
func (f *Folded) LoadState(r *snapshot.Reader) {
	f.comp = uint32(r.U64Max(uint64(f.mask)))
}

// SaveState writes the current path bits.
func (p *Path) SaveState(w *snapshot.Writer) { w.U64(p.value) }

// LoadState restores the path bits, rejecting values wider than the path.
func (p *Path) LoadState(r *snapshot.Reader) {
	p.value = r.U64Max(p.mask)
}
