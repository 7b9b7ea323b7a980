package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Trend verification: every experiment carries a machine-checkable
// statement of the paper's qualitative result — the orderings and signs
// the reproduction must preserve even where absolute magnitudes differ.
// cmd/experiments -verify runs them; EXPERIMENTS.md cites them.

// Verify checks the experiment result against its registered trend
// assertions, returning a list of violations (empty = all trends hold).
func Verify(res *Result) []string {
	check, ok := trendChecks[res.ID]
	if !ok {
		return nil
	}
	return check(res)
}

// HasTrendCheck reports whether an experiment has trend assertions.
func HasTrendCheck(id string) bool {
	_, ok := trendChecks[id]
	return ok
}

var trendChecks = map[string]func(*Result) []string{
	"table1":    checkTable1,
	"fig1":      checkFig1,
	"fig4":      checkFig4,
	"fig5":      checkFig5,
	"fig6":      checkFig6,
	"fig7":      checkFig7,
	"fig8":      checkFig8,
	"fig12":     checkFig12,
	"fig13":     checkFig13,
	"fig14b":    checkFig14b,
	"fig15a":    checkFig15a,
	"fig15b":    checkFig15b,
	"fig16a":    checkFig16a,
	"fig16b":    checkFig16b,
	"sweep-w":   checkSweepW,
	"diversity": checkDiversity,
}

// cell parses the numeric table cell at (row, col); ok=false for labels.
func cell(res *Result, row, col int) (float64, bool) {
	if row < 0 || row >= res.Table.NumRows() {
		return 0, false
	}
	cells := res.Table.Row(row)
	if col < 0 || col >= len(cells) {
		return 0, false
	}
	v, err := strconv.ParseFloat(cells[col], 64)
	return v, err == nil
}

// lastRow returns the index of the summary (average/geomean) row.
func lastRow(res *Result) int { return res.Table.NumRows() - 1 }

// findRow returns the first row whose label column contains substr.
func findRow(res *Result, substr string) int {
	for i := 0; i < res.Table.NumRows(); i++ {
		if strings.Contains(res.Table.Row(i)[0], substr) {
			return i
		}
	}
	return -1
}

func checkTable1(res *Result) []string {
	var v []string
	avg, ok := cell(res, lastRow(res), 1)
	paper, ok2 := cell(res, lastRow(res), 2)
	if !ok || !ok2 {
		return []string{"table1: summary row unreadable"}
	}
	// Calibration contract: average MPKI within 25% of the paper's.
	if avg < paper*0.75 || avg > paper*1.25 {
		v = append(v, fmt.Sprintf("table1: average MPKI %.3f drifted beyond 25%% of the paper's %.3f", avg, paper))
	}
	return v
}

func checkFig1(res *Result) []string {
	var v []string
	for i := 0; i < res.Table.NumRows(); i++ {
		mold, ok1 := cell(res, i, 1)
		mnew, ok2 := cell(res, i, 2)
		sold, ok3 := cell(res, i, 3)
		snew, ok4 := cell(res, i, 4)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			continue
		}
		if mnew >= mold {
			v = append(v, fmt.Sprintf("fig1 row %d: aggressive core should have lower MPKI (%.3f vs %.3f)", i, mnew, mold))
		}
		if snew <= sold {
			v = append(v, fmt.Sprintf("fig1 row %d: stall share should rise on the aggressive core (%.2f vs %.2f)", i, snew, sold))
		}
	}
	return v
}

func checkFig4(res *Result) []string {
	var v []string
	r := lastRow(res)
	llbp, _ := cell(res, r, 2)
	k512, _ := cell(res, r, 4)
	inf, _ := cell(res, r, 5)
	if llbp >= 1.005 {
		v = append(v, fmt.Sprintf("fig4: LLBP average normalized MPKI %.4f should be below 1", llbp))
	}
	if k512 >= llbp {
		v = append(v, "fig4: 512K TSL should clearly beat LLBP")
	}
	// The alias-free infinite mode trains slower than a warm 512K at
	// small instruction budgets, so allow a little slack.
	if inf > k512+0.02 {
		v = append(v, "fig4: Inf TSL should not lose to 512K")
	}
	return v
}

func checkFig5(res *Result) []string {
	var v []string
	// Every constraint-removal step must be a (weak) improvement, and the
	// final no-context configuration clearly the best.
	prev := 1.0
	for i := 0; i < res.Table.NumRows(); i++ {
		norm, ok := cell(res, i, 1)
		if !ok {
			continue
		}
		if norm > prev+0.01 {
			v = append(v, fmt.Sprintf("fig5: step %q regressed (%.4f after %.4f)", res.Table.Row(i)[0], norm, prev))
		}
		prev = norm
	}
	if final, ok := cell(res, lastRow(res), 1); ok && final > 0.95 {
		v = append(v, fmt.Sprintf("fig5: removing all constraints should help substantially (final %.4f)", final))
	}
	return v
}

func checkFig6(res *Result) []string {
	var v []string
	// The skew contract: a visible fraction of contexts overflows the
	// 16-pattern sets while the majority sits at <= 8.
	if row := findRow(res, "exceeding 16"); row >= 0 {
		if over, ok := cell(res, row, 1); ok && (over <= 0 || over > 60) {
			v = append(v, fmt.Sprintf("fig6: %.1f%% of contexts overflow — skew lost", over))
		}
	}
	if row := findRow(res, "<= 8 useful"); row >= 0 {
		if under, ok := cell(res, row, 1); ok && under < 40 {
			v = append(v, fmt.Sprintf("fig6: only %.1f%% of contexts are small — underutilization lost", under))
		}
	}
	return v
}

func checkFig7(res *Result) []string {
	top, ok1 := cell(res, findRow(res, "top 1%"), 1)
	bottom, ok2 := cell(res, findRow(res, "bottom 50%"), 1)
	if !ok1 || !ok2 {
		return []string{"fig7: group rows unreadable"}
	}
	// The hottest contexts must hold the longest histories. The paper's
	// correlation is strong (112 vs 17 bits); this reproduction's is weak
	// (its H2P history demand is compressed), so only the sign is
	// asserted, at the extreme tail.
	if top <= bottom {
		return []string{fmt.Sprintf("fig7: hottest contexts should hold longer histories (top1%% %.1f vs bottom %.1f bits)", top, bottom)}
	}
	return nil
}

func checkFig8(res *Result) []string {
	var v []string
	// Duplication must grow with W at short history lengths.
	shortRows := 0
	holds := 0
	for i := 0; i < res.Table.NumRows(); i++ {
		length, ok := cell(res, i, 0)
		if !ok || length > 40 {
			continue
		}
		w2, ok1 := cell(res, i, 1)
		w64, ok3 := cell(res, i, 3)
		if !ok1 || !ok3 {
			continue
		}
		shortRows++
		if w64 >= w2 {
			holds++
		}
	}
	if shortRows > 0 && holds*2 < shortRows {
		v = append(v, fmt.Sprintf("fig8: duplication should grow with W at short lengths (%d/%d rows hold)", holds, shortRows))
	}
	return v
}

func checkFig12(res *Result) []string {
	var v []string
	r := lastRow(res)
	llbp, _ := cell(res, r, 2)
	llbpx, _ := cell(res, r, 3)
	k512, _ := cell(res, r, 5)
	if llbpx < llbp-0.35 {
		v = append(v, fmt.Sprintf("fig12: LLBP-X average (%.2f%%) clearly below LLBP (%.2f%%)", llbpx, llbp))
	}
	if k512 < 10 {
		v = append(v, fmt.Sprintf("fig12: 512K TSL average %.2f%% lost the capacity headroom", k512))
	}
	if llbpx > k512 {
		v = append(v, "fig12: LLBP-X cannot beat the idealized 512K TSL")
	}
	return v
}

func checkFig13(res *Result) []string {
	var v []string
	r := lastRow(res)
	llbp, _ := cell(res, r, 1)
	llbpx, _ := cell(res, r, 2)
	k512, _ := cell(res, r, 3)
	if k512 < llbp || k512 < llbpx {
		v = append(v, "fig13: ideal 512K must bound the hierarchical designs")
	}
	if llbpx < 0.999 {
		v = append(v, fmt.Sprintf("fig13: LLBP-X geomean speedup %.4f regressed below 1", llbpx))
	}
	return v
}

func checkFig14b(res *Result) []string {
	r := lastRow(res)
	k128, _ := cell(res, r, 1)
	llbpx, _ := cell(res, r, 2)
	var v []string
	// The mechanism contract: LLBP-X must profit from the overriding
	// front end (its pattern buffer answers in the fast stage), i.e. a
	// clear speedup over the baseline. The paper's stronger result —
	// beating a 128K TSL outright — additionally needs LLBP-X's larger
	// MPKI gains, which this reproduction compresses (see EXPERIMENTS.md).
	if llbpx <= 1.0 {
		v = append(v, fmt.Sprintf("fig14b: LLBP-X gains nothing under overriding (%.4f)", llbpx))
	}
	if k128 <= 1.0 {
		v = append(v, fmt.Sprintf("fig14b: 128K TSL gains nothing under overriding (%.4f)", k128))
	}
	return v
}

func checkFig15a(res *Result) []string {
	var v []string
	for i := 0; i < res.Table.NumRows()-1; i++ {
		rd, ok1 := cell(res, i, 1)
		wr, ok2 := cell(res, i, 2)
		// Only meaningful with real traffic: near-idle workloads (kafka)
		// create sets on allocation (no store read) yet write them back.
		if ok1 && ok2 && rd > 0.05 && wr > rd {
			v = append(v, fmt.Sprintf("fig15a row %d: writes should stay below reads", i))
		}
	}
	return v
}

func checkFig15b(res *Result) []string {
	rel, ok := cell(res, lastRow(res), 3)
	if !ok {
		return []string{"fig15b: summary unreadable"}
	}
	if rel < 0.85 || rel > 1.15 {
		return []string{fmt.Sprintf("fig15b: relative energy %.3f should sit near 1 (paper: +1.5%%)", rel)}
	}
	return nil
}

// monotoneNonDecreasing checks column 1 down the table rows.
func monotoneNonDecreasing(res *Result, slack float64) bool {
	prev := -1e18
	for i := 0; i < res.Table.NumRows(); i++ {
		val, ok := cell(res, i, 1)
		if !ok {
			continue
		}
		if val < prev-slack {
			return false
		}
		prev = val
	}
	return true
}

func checkFig16a(res *Result) []string {
	if !monotoneNonDecreasing(res, 0.5) {
		return []string{"fig16a: MPKI reduction should grow (weakly) with pattern store size"}
	}
	return nil
}

func checkFig16b(res *Result) []string {
	var v []string
	for i := 0; i < res.Table.NumRows(); i++ {
		red, ok := cell(res, i, 1)
		if ok && red < -0.5 {
			v = append(v, fmt.Sprintf("fig16b: LLBP-X regressed on baseline %s (%.2f%%)", res.Table.Row(i)[0], red))
		}
	}
	return v
}

func checkDiversity(res *Result) []string {
	var v []string
	rows := res.Table.NumRows() - 1 // last row is the average
	wins := 0
	for i := 0; i < rows; i++ {
		base, ok1 := cell(res, i, 1)
		bull, ok2 := cell(res, i, 2)
		if ok1 && ok2 && bull < base {
			wins++
		}
	}
	// The H2P-targeting contract: dedicated per-branch state must beat the
	// embedded TSL-8K baseline outright on a meaningful share of workloads
	// (>= 3 of the full 14; >= 1 on the quick four-workload subset).
	need := 1
	if rows >= 10 {
		need = 3
	}
	if wins < need {
		v = append(v, fmt.Sprintf("diversity: bullseye beats tsl-8k on %d/%d workloads, need >= %d", wins, rows, need))
	}
	r := lastRow(res)
	base, ok1 := cell(res, r, 1)
	tour, ok2 := cell(res, r, 2+1)
	if !ok1 || !ok2 {
		return append(v, "diversity: average row unreadable")
	}
	// The arbitration contract: a tsl-8k+llbp tournament must track its
	// stronger member, i.e. land clearly below the weak member's average.
	if tour >= base {
		v = append(v, fmt.Sprintf("diversity: tournament average MPKI %.3f should beat tsl-8k's %.3f", tour, base))
	}
	return v
}

func checkSweepW(res *Result) []string {
	// Static shallow contexts must beat static deep ones overall — the
	// asymmetry dynamic adaptation exploits.
	w2, ok1 := cell(res, 0, 1)
	w64, ok2 := cell(res, res.Table.NumRows()-1, 1)
	if !ok1 || !ok2 {
		return []string{"sweep-w: endpoints unreadable"}
	}
	if w64 >= w2+0.25 {
		return []string{fmt.Sprintf("sweep-w: W=64 (%.2f%%) should trail W=2 (%.2f%%)", w64, w2)}
	}
	return nil
}
