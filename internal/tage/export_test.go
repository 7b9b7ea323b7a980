package tage

// Logical fold kinds, for the external tests.
const (
	FoldIdx   = foldIdx
	FoldTag1  = foldTag1
	FoldTag2  = foldTag2
	FoldInf1  = foldInf1
	FoldInf2  = foldInf2
	FoldBank1 = foldBank1
	FoldBank2 = foldBank2
	FoldKinds = foldKinds
)

// FoldValue returns the value logical fold k of table i reads.
func (p *Predictor) FoldValue(i, k int) uint64 { return p.fold(i, k).Value() }

// BankWidth returns the attached TagBank's width, 0 without one.
func (p *Predictor) BankWidth() uint {
	if p.bank == nil {
		return 0
	}
	return p.bank.width
}

// DistinctFolds counts the registers pushHistory advances per branch.
func (p *Predictor) DistinctFolds() int {
	n := 0
	for _, r := range p.nregs {
		n += int(r)
	}
	return n
}
