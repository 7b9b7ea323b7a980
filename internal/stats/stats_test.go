package stats

import (
	"math"
	"strings"
	"testing"
)

func TestBranchStatsMPKI(t *testing.T) {
	s := BranchStats{Instructions: 2_000_000, Mispredicts: 5838}
	if got := s.MPKI(); math.Abs(got-2.919) > 1e-9 {
		t.Fatalf("MPKI = %v, want 2.919", got)
	}
	if (BranchStats{}).MPKI() != 0 {
		t.Fatal("empty stats must report 0 MPKI")
	}
}

func TestBranchStatsAccuracy(t *testing.T) {
	s := BranchStats{CondBranches: 1000, Mispredicts: 25}
	if got := s.Accuracy(); math.Abs(got-0.975) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if (BranchStats{}).Accuracy() != 1 {
		t.Fatal("no branches means perfect accuracy")
	}
}

func TestBranchStatsAdd(t *testing.T) {
	a := BranchStats{Instructions: 10, CondBranches: 2, Mispredicts: 1, UncondCount: 3, SecondLevelOK: 1, Overrides: 4}
	b := a
	a.Add(b)
	if a.Instructions != 20 || a.CondBranches != 4 || a.Mispredicts != 2 ||
		a.UncondCount != 6 || a.SecondLevelOK != 2 || a.Overrides != 8 {
		t.Fatalf("Add produced %+v", a)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(4.0, 3.0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Reduction = %v", got)
	}
	if Reduction(0, 3) != 0 {
		t.Fatal("zero base must not divide")
	}
	if Reduction(2, 3) >= 0 {
		t.Fatal("regression must be negative")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("beta", 42)
	out := tbl.String()
	for _, want := range []string{"== demo ==", "name", "value", "alpha", "1.500", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if row := tbl.Row(0); row[0] != "alpha" {
		t.Fatalf("Row(0) = %v", row)
	}
}

func TestFormatFloatStyles(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(0.01234)
	tbl.AddRow(3.14159)
	tbl.AddRow(123.456)
	tbl.AddRow(7.0)
	rows := []string{tbl.Row(0)[0], tbl.Row(1)[0], tbl.Row(2)[0], tbl.Row(3)[0]}
	want := []string{"0.0123", "3.142", "123.5", "7"}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
	if GeoMean([]float64{0, 1}) > 1e-5 {
		t.Fatal("non-positive values must not blow up")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
}
