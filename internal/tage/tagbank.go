package tage

import "llbpx/internal/hashutil"

// TagBank computes pattern tags of a fixed width for every TAGE history
// length. LLBP and LLBP-X use one to form the (wider-than-TAGE) tags
// stored in their pattern sets. Its folded registers are owned by the
// predictor it is attached to, which advances them in the same pass as its
// own folds, so the bank always sees exactly the predictor's history; a
// bank fold as wide as one of the table's own folds reads that register.
type TagBank struct {
	p     *Predictor
	width uint
	mask  uint64
}

// AttachTagBank gives p a bank producing width-bit tags (5 <= width <= 31)
// for each of the standard HistoryLengths. Attach it before the first
// branch; a predictor carries at most one bank.
func (p *Predictor) AttachTagBank(width uint) *TagBank {
	if width < 5 || width > 31 {
		panic("tage: TagBank width out of range [5,31]")
	}
	if p.bank != nil {
		panic("tage: predictor already has a TagBank")
	}
	p.bank = &TagBank{p: p, width: width, mask: uint64(1)<<width - 1}
	p.layoutFolds()
	return p.bank
}

// Width returns the tag width in bits.
func (b *TagBank) Width() uint { return b.width }

// Tag returns the width-bit pattern tag for pc at history length index
// lenIdx (into HistoryLengths), using the current history state.
func (b *TagBank) Tag(pc uint64, lenIdx int) uint32 {
	f, s := &b.p.folds[lenIdx], &b.p.slot[lenIdx]
	t := hashutil.PCMix(pc) ^ f[s[foldBank1]].Value() ^ (f[s[foldBank2]].Value() << 1)
	return uint32(t & b.mask)
}
