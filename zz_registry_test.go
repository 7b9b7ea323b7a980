package llbpx_test

// Facade-level predictor-registry extension tests. The registry is
// process-global and has no unregister, so the golden suites iterate
// builtinPredictors (captured before any test runs) rather than
// llbpx.PredictorNames(), and the registration below happens once per
// process so the test can repeat under -count.

import (
	"sort"
	"sync"
	"testing"

	"llbpx"
)

// alternating is a trivially-deterministic custom predictor registered
// through the public facade.
type alternating struct{ flip bool }

func (a *alternating) Name() string { return "zz-alternating" }
func (a *alternating) Predict(pc uint64) llbpx.Prediction {
	a.flip = !a.flip
	return llbpx.Prediction{Taken: a.flip}
}
func (a *alternating) Update(b llbpx.Branch, pred llbpx.Prediction) {}
func (a *alternating) TrackUnconditional(b llbpx.Branch)            {}

// registerAlternating registers the stub on first use; later calls in the
// same process return the first call's result.
var registerAlternating = sync.OnceValue(func() error {
	return llbpx.RegisterPredictor("zz-alternating", "test-only alternating stub",
		func() (llbpx.Predictor, error) { return &alternating{}, nil })
})

func TestRegisterPredictorFacade(t *testing.T) {
	const name = "zz-alternating"
	if err := registerAlternating(); err != nil {
		t.Fatal(err)
	}

	// The registered name joins the shared vocabulary, sorted.
	names := llbpx.PredictorNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("PredictorNames not sorted after registration: %v", names)
	}
	found := false
	for _, n := range names {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%q missing from PredictorNames: %v", name, names)
	}
	if info, ok := llbpx.DescribePredictor(name); !ok || info.Description != "test-only alternating stub" {
		t.Fatalf("DescribePredictor = %+v, %v", info, ok)
	}
	infoFound := false
	for _, info := range llbpx.Predictors() {
		if info.Name == name && info.Description != "" {
			infoFound = true
		}
	}
	if !infoFound {
		t.Fatal("Predictors() does not list the registered entry")
	}

	// The factory is live: build and simulate through the normal path.
	p, err := llbpx.NewPredictorByName(name)
	if err != nil {
		t.Fatal(err)
	}
	branches := make([]llbpx.Branch, 100)
	for i := range branches {
		branches[i] = llbpx.Branch{PC: uint64(i), Kind: llbpx.CondDirect, Taken: i%2 == 0, InstrGap: 4}
	}
	res, err := llbpx.Simulate(p, llbpx.NewSliceSource(branches), llbpx.SimOptions{MeasureInstr: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictor != name || res.Measured.CondBranches == 0 {
		t.Fatalf("registered predictor did not simulate: %+v", res)
	}

	// Registration is strict: duplicates, empty names, and nil factories
	// are rejected rather than overwriting.
	if err := llbpx.RegisterPredictor(name, "shadow attempt",
		func() (llbpx.Predictor, error) { return &alternating{}, nil }); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if err := llbpx.RegisterPredictor("", "anonymous",
		func() (llbpx.Predictor, error) { return &alternating{}, nil }); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := llbpx.RegisterPredictor("zz-nil-factory", "no factory", nil); err == nil {
		t.Fatal("nil factory must fail")
	}
}
