package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"llbpx/internal/core"
)

// TestParseSpec pins the spec grammar: accepted forms, their parsed
// shapes, and the rejection of malformed inputs.
func TestParseSpec(t *testing.T) {
	good := []struct {
		in   string
		want PredictorSpec
	}{
		{"tsl-64k", PredictorSpec{Name: "tsl-64k"}},
		{"  llbp-x  ", PredictorSpec{Name: "llbp-x"}},
		{"bullseye()", PredictorSpec{Name: "bullseye"}},
		{"bullseye(promote=8)", PredictorSpec{Name: "bullseye", Params: map[string]string{"promote": "8"}}},
		{"bullseye( promote = 8 , branches = 1024 )", PredictorSpec{
			Name: "bullseye", Params: map[string]string{"promote": "8", "branches": "1024"}}},
		{"tournament(members=tsl-8k+llbp,chooser_bits=12)", PredictorSpec{
			Name: "tournament", Params: map[string]string{"members": "tsl-8k+llbp", "chooser_bits": "12"}}},
		// A nested member spec keeps its own commas and parentheses intact.
		{"tournament(members=bullseye(promote=8,branches=32)+llbp)", PredictorSpec{
			Name: "tournament", Params: map[string]string{"members": "bullseye(promote=8,branches=32)+llbp"}}},
	}
	for _, tc := range good {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if sp.Name != tc.want.Name || !reflect.DeepEqual(sp.Params, tc.want.Params) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
	}

	bad := []string{
		"",
		"   ",
		"tsl 64k",
		"name())",
		"name(",
		"name(a=1",
		"name(a=1))",
		"name(a)",
		"name(=1)",
		"name(a=1,a=2)",
		"name(a b=1)",
		"(a=1)",
		"na me(a=1)",
		strings.Repeat("x", maxSpecLen+1),
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", in)
		}
	}
}

// TestSpecRoundTrip: String() re-parses to an equal spec, and parsing the
// rendering is a fixed point.
func TestSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"tsl-8k",
		"bullseye(branches=1024,promote=8)",
		"tournament(chooser_bits=8,members=tsl-8k+llbp)",
		"tournament(members=bullseye(promote=8)+llbp)",
	} {
		sp, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		rendered := sp.String()
		sp2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(String()=%q): %v", rendered, err)
		}
		if sp2.Name != sp.Name || !reflect.DeepEqual(sp2.Params, sp.Params) {
			t.Errorf("round trip %q -> %q -> %+v, want %+v", in, rendered, sp2, sp)
		}
		if again := sp2.String(); again != rendered {
			t.Errorf("String not a fixed point: %q then %q", rendered, again)
		}
	}
}

// FuzzParseSpec: whatever parses must render and re-parse to the same
// spec, and the parser must never panic.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"tsl-64k",
		"bullseye(promote=8,branches=1024)",
		"tournament(members=tsl-8k+llbp,chooser_bits=12)",
		"tournament(members=bullseye(promote=8)+llbp)",
		"name(a=1,b=,c==x)",
		"x(((",
		"a(b=c)d",
		" spaced ( k = v ) ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return
		}
		rendered := sp.String()
		sp2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("rendering of accepted spec rejected: %q -> %q: %v", in, rendered, err)
		}
		if sp2.Name != sp.Name || !reflect.DeepEqual(sp2.Params, sp.Params) {
			t.Fatalf("round trip diverged: %q -> %+v -> %q -> %+v", in, sp, rendered, sp2)
		}
	})
}

// TestSplitSpecList pins depth-aware '+' splitting.
func TestSplitSpecList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tsl-8k", []string{"tsl-8k"}},
		{"tsl-8k+llbp", []string{"tsl-8k", "llbp"}},
		{" tsl-8k + llbp ", []string{"tsl-8k", "llbp"}},
		{"bullseye(promote=8)+llbp", []string{"bullseye(promote=8)", "llbp"}},
		{"a+", []string{"a", ""}},
	}
	for _, tc := range cases {
		if got := SplitSpecList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitSpecList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestBareNamesBackCompat is the compatibility lock: every builtin bare
// name must resolve verbatim — it builds, labels the instance with the
// exact name, and is its own canonical form. Pre-redesign clients,
// snapshots, and scripts depend on this.
func TestBareNamesBackCompat(t *testing.T) {
	builtins := []string{
		"bullseye", "llbp", "llbp-0lat", "llbp-x", "tournament",
		"tsl-128k", "tsl-16k", "tsl-32k", "tsl-512k", "tsl-64k",
		"tsl-8k", "tsl-inf",
	}
	for _, name := range builtins {
		canon, err := CanonicalPredictorName(name)
		if err != nil {
			t.Fatalf("CanonicalPredictorName(%s): %v", name, err)
		}
		if canon != name {
			t.Errorf("bare name %q canonicalized to %q, must be itself", name, canon)
		}
		p, err := NewPredictor(name)
		if err != nil {
			t.Fatalf("NewPredictor(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPredictor(%s).Name() = %q, want the bare name", name, p.Name())
		}
	}
}

// TestCanonicalPredictorName pins normalization: parameter order,
// whitespace, int/bool spellings, default elision, and member
// canonicalization inside spec-lists all collapse to one form.
func TestCanonicalPredictorName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bullseye", "bullseye"},
		{"bullseye()", "bullseye"},
		{"bullseye(promote=4)", "bullseye"},                // default elided
		{"bullseye(promote=8)", "bullseye(promote=8)"},     //
		{"bullseye(promote=08)", "bullseye(promote=8)"},    // canonical decimal
		{"bullseye( promote = 8 )", "bullseye(promote=8)"}, // whitespace
		{"bullseye(branches=1024,promote=8)", "bullseye(branches=1024,promote=8)"},
		{"bullseye(promote=8,branches=1024)", "bullseye(branches=1024,promote=8)"}, // key order
		{"tournament", "tournament"},
		{"tournament(chooser_bits=12)", "tournament"},
		{"tournament(members=tsl-8k+llbp)", "tournament"},
		{"tournament(members=tsl-8k + llbp)", "tournament"}, // member whitespace
		// Member specs canonicalize recursively: decimal normalization and
		// default elision apply inside the spec-list too.
		{"tournament(members=tsl-8k+bullseye(promote=08))",
			"tournament(members=tsl-8k+bullseye(promote=8))"},
		{"tournament(members=tsl-8k+bullseye(promote=04))",
			"tournament(members=tsl-8k+bullseye)"},
		{"tournament(chooser_bits=8,members=llbp+tsl-8k)",
			"tournament(chooser_bits=8,members=llbp+tsl-8k)"},
	}
	for _, tc := range cases {
		got, err := CanonicalPredictorName(tc.in)
		if err != nil {
			t.Errorf("CanonicalPredictorName(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("CanonicalPredictorName(%q) = %q, want %q", tc.in, got, tc.want)
		}
		// Canonicalization is idempotent.
		if again, err := CanonicalPredictorName(got); err != nil || again != got {
			t.Errorf("canonical form %q not a fixed point: %q, %v", got, again, err)
		}
	}
}

// TestSpecResolutionErrors pins the failure modes clients see.
func TestSpecResolutionErrors(t *testing.T) {
	for _, in := range []string{
		"nope",                                           // unknown name
		"bullseye(nope=1)",                               // unknown parameter
		"tsl-64k(x=1)",                                   // parameterless predictor
		"bullseye(promote=zero)",                         // not an integer
		"bullseye(promote=0)",                            // below Min
		"bullseye(branches=99999999)",                    // above Max
		"tournament(members=tsl-8k)",                     // too few members
		"tournament(members=tsl-8k+nope)",                // unknown member
		"tournament(chooser_bits=99)",                    // out of range
		"bullseye(base=llbp)",                            // base must be a tsl config
		"bullseye(h2p_file=/does/not/exist)",             // unreadable seed file
		"tournament(members=tsl-8k+llbp+llbp+llbp+llbp)", // too many members
	} {
		if _, err := NewPredictor(in); err == nil {
			t.Errorf("NewPredictor(%q) accepted, want error", in)
		}
	}
	// Unknown names must wrap the sentinel for the HTTP 400 mapping.
	if _, err := NewPredictor("nope"); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("unknown name error unhelpful: %v", err)
	}
}

// TestClientSpecsRejectLocalOnlyParams is the serving-layer security
// lock: a client-supplied spec must never make the server touch its
// filesystem. h2p_file builds locally (the CLI/facade path) but is
// rejected — before any file I/O — when the same spec arrives through
// the client constructor, including nested inside a tournament member.
func TestClientSpecsRejectLocalOnlyParams(t *testing.T) {
	seed := filepath.Join(t.TempDir(), "h2p.json")
	if err := os.WriteFile(seed, []byte(`{"table":[{"pc":"0x1234"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := "bullseye(h2p_file=" + seed + ")"
	if _, err := NewPredictor(spec); err != nil {
		t.Fatalf("NewPredictor(%q): %v", spec, err)
	}
	if _, err := NewClientPredictor(spec); err == nil || !strings.Contains(err.Error(), "h2p_file") {
		t.Fatalf("NewClientPredictor(%q) = %v, want an h2p_file rejection", spec, err)
	}
	// The rejection must not be a file-existence oracle: a missing path
	// draws the same error as an existing one.
	if _, err := NewClientPredictor("bullseye(h2p_file=/does/not/exist)"); err == nil ||
		!strings.Contains(err.Error(), "h2p_file") || strings.Contains(err.Error(), "no such file") {
		t.Fatalf("client rejection must not come from file I/O: %v", err)
	}
	nested := "tournament(members=bullseye(h2p_file=" + seed + ")+tsl-8k)"
	if _, err := NewPredictor(nested); err != nil {
		t.Fatalf("NewPredictor(%q): %v", nested, err)
	}
	if _, err := NewClientPredictor(nested); err == nil || !strings.Contains(err.Error(), "h2p_file") {
		t.Fatalf("NewClientPredictor(%q) = %v, want an h2p_file rejection", nested, err)
	}
	// Ordinary client specs still build.
	if p, err := NewClientPredictor("bullseye(promote=8)"); err != nil || p == nil {
		t.Fatalf("NewClientPredictor(bullseye(promote=8)): %v", err)
	}
	// And the metadata API declares the restriction.
	info, ok := DescribePredictor("bullseye")
	if !ok {
		t.Fatal("bullseye did not resolve")
	}
	for _, pd := range info.Params {
		if pd.Name == "h2p_file" && !pd.LocalOnly {
			t.Error("h2p_file metadata must carry local_only")
		}
	}
}

// TestSessionRejectsLocalOnlySpec covers the path the HTTP layer reaches:
// a client-requested h2p_file spec fails session creation, while the
// server operator's configured default remains free to use one.
func TestSessionRejectsLocalOnlySpec(t *testing.T) {
	seed := filepath.Join(t.TempDir(), "h2p.json")
	if err := os.WriteFile(seed, []byte(`{"table":[{"pc":"0x1234"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	batch := func(srv *Server, id, predictor string) *APIError {
		one := []core.Branch{{PC: 4096, Taken: true, InstrGap: 3}}
		_, aerr := srv.Predict(context.Background(), Batch{Session: id, Predictor: predictor, Branches: one}, make([]core.Prediction, 1))
		return aerr
	}
	if aerr := batch(srv, "s1", "bullseye(h2p_file="+seed+")"); aerr == nil {
		t.Fatal("client h2p_file spec created a session")
	}
	trusted := New(Config{DefaultPredictor: "bullseye(h2p_file=" + seed + ")"})
	defer trusted.Close()
	if aerr := batch(trusted, "s2", ""); aerr != nil {
		t.Fatalf("server-configured default with h2p_file: %v", aerr)
	}
}

// TestParameterizedSpecBuilds exercises the factory path: explicit
// parameters reach the built predictor, and the instance is labelled with
// the canonical spec.
func TestParameterizedSpecBuilds(t *testing.T) {
	p, err := NewPredictor("bullseye(promote=8,branches=1024)")
	if err != nil {
		t.Fatal(err)
	}
	if want := "bullseye(branches=1024,promote=8)"; p.Name() != want {
		t.Errorf("predictor name %q, want canonical %q", p.Name(), want)
	}
	p2, err := NewPredictor("tournament(members=tsl-8k+tsl-64k,chooser_bits=8)")
	if err != nil {
		t.Fatal(err)
	}
	if want := "tournament(chooser_bits=8,members=tsl-8k+tsl-64k)"; p2.Name() != want {
		t.Errorf("tournament name %q, want canonical %q", p2.Name(), want)
	}
}

// TestDescribePredictorSpecs: metadata resolves for parameterized specs
// and reports schemas and storage estimates.
func TestDescribePredictorSpecs(t *testing.T) {
	info, ok := DescribePredictor("bullseye(branches=1024)")
	if !ok {
		t.Fatal("bullseye spec did not resolve")
	}
	if info.Name != "bullseye(branches=1024)" {
		t.Errorf("canonical name %q", info.Name)
	}
	if len(info.Params) == 0 {
		t.Error("bullseye schema missing from metadata")
	}
	if info.StorageBytes <= 0 {
		t.Error("bullseye storage estimate missing")
	}
	base, ok := DescribePredictor("bullseye")
	if !ok {
		t.Fatal("bare bullseye did not resolve")
	}
	if info.StorageBytes <= base.StorageBytes {
		t.Errorf("branches=1024 storage %d should exceed the default's %d",
			info.StorageBytes, base.StorageBytes)
	}
	if _, ok := DescribePredictor("nope"); ok {
		t.Error("unknown spec resolved")
	}
	if _, ok := DescribePredictor("bullseye(promote=0)"); ok {
		t.Error("out-of-range spec resolved")
	}
}

// TestPredictorsEndpoint covers GET /v1/predictors: 200, JSON body in the
// standard conventions, every builtin present with schema metadata.
func TestPredictorsEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/predictors", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/predictors = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type %q", ct)
	}
	var reply struct {
		Predictors []PredictorInfo `json:"predictors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("body not the documented shape: %v\n%s", err, rec.Body.String())
	}
	byName := make(map[string]PredictorInfo, len(reply.Predictors))
	for _, info := range reply.Predictors {
		byName[info.Name] = info
	}
	for _, name := range []string{"tsl-64k", "llbp", "llbp-x", "bullseye", "tournament"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("/v1/predictors missing %q", name)
		}
	}
	if len(byName["bullseye"].Params) == 0 {
		t.Error("/v1/predictors: bullseye schema missing")
	}
	if byName["llbp"].StorageBytes <= 0 {
		t.Error("/v1/predictors: llbp storage estimate missing")
	}
}
