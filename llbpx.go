// Package llbpx is a from-scratch Go reproduction of "The Last-Level
// Branch Predictor Revisited" (HPCA 2026): the TAGE-SC-L predictor family,
// the hierarchical LLBP design, and the paper's contribution LLBP-X with
// dynamic context depth adaptation — plus the synthetic server workloads,
// the branch-level simulator, the timing and energy models, and the
// harness that regenerates every table and figure of the evaluation.
//
// # Quick start
//
//	prof, _ := llbpx.WorkloadByName("nodeapp")
//	prog, _ := llbpx.BuildProgram(prof)
//	res, _ := llbpx.Simulate(llbpx.NewLLBPX(llbpx.LLBPXDefault()),
//		llbpx.NewGenerator(prog), llbpx.SimOptions{WarmupInstr: 1e6, MeasureInstr: 2e6})
//	fmt.Println(res.MPKI())
//
// The runnable programs under examples/ and the cmd/ tools build only on
// this package.
package llbpx

import (
	"context"
	"fmt"
	"io"

	"llbpx/internal/analyze"
	"llbpx/internal/btb"
	"llbpx/internal/core"
	"llbpx/internal/experiments"
	"llbpx/internal/llbp"
	llbpximpl "llbpx/internal/llbpx"
	"llbpx/internal/pipeline"
	"llbpx/internal/serve"
	"llbpx/internal/sim"
	"llbpx/internal/snapshot"
	"llbpx/internal/stats"
	"llbpx/internal/tage"
	"llbpx/internal/trace"
	"llbpx/internal/workload"
)

// Core vocabulary ---------------------------------------------------------

// Branch is one retired control-flow instruction.
type Branch = core.Branch

// BranchKind classifies a branch.
type BranchKind = core.BranchKind

// Branch kinds.
const (
	CondDirect   = core.CondDirect
	Jump         = core.Jump
	Call         = core.Call
	Return       = core.Return
	IndirectJump = core.IndirectJump
)

// Prediction is a direction prediction with provenance.
type Prediction = core.Prediction

// Predictor is the contract every predictor implements.
type Predictor = core.Predictor

// Source yields a branch stream.
type Source = core.Source

// NewSliceSource adapts a branch slice to a Source.
func NewSliceSource(branches []Branch) Source { return core.NewSliceSource(branches) }

// Workloads ---------------------------------------------------------------

// WorkloadProfile parameterizes a synthetic server workload.
type WorkloadProfile = workload.Profile

// Program is a compiled workload.
type Program = workload.Program

// Generator executes a Program into a branch stream; it implements Source.
type Generator = workload.Generator

// Workloads returns the 14 preset profiles mirroring the paper's Table I.
func Workloads() []WorkloadProfile { return workload.Workloads() }

// WorkloadNames returns the preset names in Table I order.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName returns a preset profile.
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// DefaultWorkload returns a mid-sized custom profile to derive from.
func DefaultWorkload(name string, seed uint64) WorkloadProfile { return workload.Default(name, seed) }

// BuildProgram compiles a profile.
func BuildProgram(p WorkloadProfile) (*Program, error) { return workload.Build(p) }

// NewGenerator starts a program's branch stream.
func NewGenerator(p *Program) *Generator { return workload.NewGenerator(p) }

// Predictors ---------------------------------------------------------------

// TSLConfig parameterizes a TAGE-SC-L instance.
type TSLConfig = tage.Config

// TSL presets: storage budgets in the paper's naming.
func TSL8K() TSLConfig   { return tage.Config8K() }
func TSL16K() TSLConfig  { return tage.Config16K() }
func TSL32K() TSLConfig  { return tage.Config32K() }
func TSL64K() TSLConfig  { return tage.Config64K() }
func TSL128K() TSLConfig { return tage.Config128K() }
func TSL512K() TSLConfig { return tage.Config512K() }
func TSLInf() TSLConfig  { return tage.ConfigInf() }

// TSLPredictor is a TAGE-SC-L instance.
type TSLPredictor = tage.Predictor

// NewTSL builds a TAGE-SC-L predictor.
func NewTSL(cfg TSLConfig) (*TSLPredictor, error) { return tage.New(cfg) }

// LLBPConfig parameterizes the original LLBP.
type LLBPConfig = llbp.Config

// LLBPDefault is the paper's baseline LLBP configuration (515KB, W=8,
// D=4).
func LLBPDefault() LLBPConfig { return llbp.Default() }

// LLBPZeroLatency is the LLBP-0Lat configuration.
func LLBPZeroLatency() LLBPConfig { return llbp.ZeroLatency() }

// LLBPPredictor is an original-LLBP instance.
type LLBPPredictor = llbp.Predictor

// NewLLBP builds an LLBP predictor.
func NewLLBP(cfg LLBPConfig) (*LLBPPredictor, error) { return llbp.New(cfg) }

// LLBPXConfig parameterizes LLBP-X.
type LLBPXConfig = llbpximpl.Config

// LLBPXDefault is the paper's LLBP-X configuration (dynamic context depth
// adaptation + history range selection).
func LLBPXDefault() LLBPXConfig { return llbpximpl.Default() }

// LLBPXPredictor is an LLBP-X instance.
type LLBPXPredictor = llbpximpl.Predictor

// NewLLBPX builds an LLBP-X predictor.
func NewLLBPX(cfg LLBPXConfig) (*LLBPXPredictor, error) { return llbpximpl.New(cfg) }

// NewPredictorByName builds any predictor configuration from a registry
// spec: a bare name ("tsl-8k" … "tsl-inf", "llbp", "llbp-0lat", "llbp-x",
// "bullseye", "tournament") or a parameterized form such as
// "tournament(members=tsl-8k+llbp,chooser_bits=12)" — the vocabulary
// cmd/llbpsim and the llbpd serving layer share.
func NewPredictorByName(spec string) (Predictor, error) { return serve.NewPredictor(spec) }

// PredictorNames lists the registry's predictor configuration names.
func PredictorNames() []string { return serve.PredictorNames() }

// PredictorSpec is a parsed predictor spec: a registry name plus explicit
// parameters.
type PredictorSpec = serve.PredictorSpec

// ParseSpec parses "name" or "name(key=value,...)" into a PredictorSpec.
// It validates syntax only; parameter names, types, and ranges are checked
// against the registered schema when the spec is resolved.
func ParseSpec(spec string) (PredictorSpec, error) { return serve.ParseSpec(spec) }

// CanonicalPredictorName resolves a spec against the registry and returns
// its canonical form: parameters validated, defaults elided, keys sorted.
// Two specs naming the same configuration canonicalize identically, which
// is the identity llbpd sessions and snapshots key on.
func CanonicalPredictorName(spec string) (string, error) {
	return serve.CanonicalPredictorName(spec)
}

// PredictorFactory builds a fresh predictor instance for one registered
// configuration.
type PredictorFactory = serve.PredictorFactory

// SpecFactory builds a predictor from its canonical spec string and
// resolved parameters.
type SpecFactory = serve.SpecFactory

// Params carries a spec's resolved parameters (defaults filled in,
// values validated and normalized).
type Params = serve.Params

// ParamKind is a predictor parameter's type.
type ParamKind = serve.ParamKind

// Parameter kinds.
const (
	ParamInt      = serve.ParamInt
	ParamBool     = serve.ParamBool
	ParamString   = serve.ParamString
	ParamSpecList = serve.ParamSpecList
)

// ParamDef declares one parameter a predictor accepts.
type ParamDef = serve.ParamDef

// ParamInfo describes one parameter in a PredictorInfo.
type ParamInfo = serve.ParamInfo

// PredictorInfo describes one registry entry: name, one-line summary,
// parameter schema, and estimated second-level storage.
type PredictorInfo = serve.PredictorInfo

// RegisterPredictor adds a named predictor configuration to the shared
// registry. The name becomes usable everywhere registry specs are:
// NewPredictorByName, cmd/llbpsim -predictor, llbpd session creation, and
// snapshot loading. Registration fails (rather than overwrites) on an
// empty name, a nil factory, or a name already taken — built-ins cannot
// be shadowed.
func RegisterPredictor(name, desc string, factory PredictorFactory) error {
	return serve.RegisterPredictor(name, desc, factory)
}

// RegisterPredictorSpec adds a parameterized predictor configuration:
// schema declares the accepted parameters (with typed defaults and
// ranges), storage optionally estimates the configuration's second-level
// bytes, and factory receives the canonical spec plus resolved parameters.
func RegisterPredictorSpec(name, desc string, schema []ParamDef, storage func(Params) int64, factory SpecFactory) error {
	return serve.RegisterPredictorSpec(name, desc, schema, storage, factory)
}

// DescribePredictor resolves a spec and returns its full metadata —
// canonical name, description, parameter schema, storage estimate — and
// whether the spec resolves.
func DescribePredictor(spec string) (PredictorInfo, bool) { return serve.DescribePredictor(spec) }

// Predictors returns every registry entry, sorted by name.
func Predictors() []PredictorInfo { return serve.Predictors() }

// Checkpointing -------------------------------------------------------------

// SavePredictorState serializes a predictor's complete learned state —
// tables, histories, replacement metadata, statistics — to w in the
// versioned, CRC-guarded snapshot format. name must be the registry name
// the predictor was built from; it is embedded so LoadPredictorState can
// reconstruct the right configuration.
func SavePredictorState(w io.Writer, name string, p Predictor) error {
	st, ok := p.(snapshot.State)
	if !ok {
		return fmt.Errorf("llbpx: predictor %T does not support snapshots", p)
	}
	return snapshot.Save(w, name, st)
}

// LoadPredictorState reconstructs a predictor from a snapshot written by
// SavePredictorState. The restored instance produces bit-identical
// predictions and statistics to the one that was saved. Corrupt or
// version-incompatible bytes return an error wrapping snapshot.ErrCorrupt;
// callers should treat that as "start cold", never as fatal. r is read
// to EOF; bytes after the snapshot are ignored.
func LoadPredictorState(r io.Reader) (Predictor, string, error) {
	return loadedPredictor(snapshot.Load(r, constructSnapshotted))
}

// constructSnapshotted builds the cold predictor a snapshot's header
// names, for the decoder to fill.
func constructSnapshotted(name string) (snapshot.State, error) {
	p, err := serve.NewPredictor(name)
	if err != nil {
		return nil, err
	}
	s, ok := p.(snapshot.State)
	if !ok {
		return nil, fmt.Errorf("predictor %q does not support snapshots", name)
	}
	return s, nil
}

func loadedPredictor(st snapshot.State, name string, err error) (Predictor, string, error) {
	if err != nil {
		return nil, "", err
	}
	return st.(Predictor), name, nil
}

// SavePredictorFile checkpoints a predictor to path crash-consistently
// (temp file + fsync + rename).
func SavePredictorFile(path, name string, p Predictor) error {
	st, ok := p.(snapshot.State)
	if !ok {
		return fmt.Errorf("llbpx: predictor %T does not support snapshots", p)
	}
	return snapshot.WriteFile(path, name, st)
}

// LoadPredictorFile restores a predictor from a snapshot file.
func LoadPredictorFile(path string) (Predictor, string, error) {
	return loadedPredictor(snapshot.ReadFile(path, constructSnapshotted))
}

// ErrSnapshotCorrupt is the sentinel wrapped by every snapshot decode
// failure (bad magic, unknown version, CRC mismatch, truncation,
// out-of-range state).
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// HistoryLengths exposes the 21 TAGE global-history lengths.
func HistoryLengths() []int {
	out := make([]int, tage.NumTables)
	copy(out, tage.HistoryLengths[:])
	return out
}

// Simulation ---------------------------------------------------------------

// SimOptions bounds a simulation (instruction counts).
type SimOptions = sim.Options

// SimResult is a simulation outcome; MPKI() is the headline metric.
type SimResult = sim.Result

// SimObserver receives one callback per simulated conditional branch; see
// sim.Observer for the hot-path contract (nil is free, implementations
// must not retain arguments).
type SimObserver = sim.Observer

// Simulate drives a predictor over a branch stream in retire order.
func Simulate(p Predictor, src Source, opt SimOptions) (SimResult, error) {
	return sim.Run(p, src, opt)
}

// SimulateContext is Simulate with cancellation: the context is checked at
// internal batch boundaries, and a cancelled run returns the partial
// result accumulated so far together with ctx.Err().
func SimulateContext(ctx context.Context, p Predictor, src Source, opt SimOptions) (SimResult, error) {
	return sim.RunContext(ctx, p, src, opt)
}

// Misprediction attribution --------------------------------------------------

// MispredictAttribution accumulates per-static-branch misprediction
// attribution from a simulation: pass one as SimOptions.Observer, then
// read TopK or render Table for the paper-style H2P breakdown (which
// static branches concentrate the misprediction mass, and which provider
// component — bimodal base, short- or long-history TAGE table, or the
// second-level pattern buffer — was providing on each miss).
type MispredictAttribution = analyze.Attribution

// BranchProfile is one static branch's accumulated attribution record.
type BranchProfile = analyze.BranchProfile

// NewMispredictAttribution returns an empty attribution observer.
func NewMispredictAttribution() *MispredictAttribution { return analyze.NewAttribution() }

// AttributionExport is the machine-readable attribution artifact
// (MispredictAttribution.ExportTopK, llbpsim -attr -json): the H2P set in
// misprediction-share order, the format bullseye's h2p_file= spec
// parameter consumes.
type AttributionExport = analyze.Export

// AttributionExportRow is one static branch in an AttributionExport.
type AttributionExportRow = analyze.ExportRow

// Timing model --------------------------------------------------------------

// CoreConfig describes a cycle-approximate core model.
type CoreConfig = pipeline.CoreConfig

// CoreActivity is the model input derived from a simulation.
type CoreActivity = pipeline.Activity

// CoreResult is the model's timing outcome.
type CoreResult = pipeline.Result

// ServerCore returns the Table II-like core configuration.
func ServerCore() CoreConfig { return pipeline.Server() }

// Speedup compares two timing results.
func Speedup(base, x CoreResult) float64 { return pipeline.Speedup(base, x) }

// Traces ---------------------------------------------------------------------

// WriteTrace encodes branches to w in the repository's binary format.
func WriteTrace(w io.Writer, branches []Branch) error { return trace.WriteAll(w, branches) }

// ReadTrace decodes a full trace from r.
func ReadTrace(r io.Reader) ([]Branch, error) { return trace.ReadAll(r) }

// NewTraceReader returns a streaming trace decoder (a Source).
func NewTraceReader(r io.Reader) (*trace.Reader, error) { return trace.NewReader(r) }

// NewTraceWriter returns a streaming trace encoder.
func NewTraceWriter(w io.Writer) (*trace.Writer, error) { return trace.NewWriter(w) }

// NewChampSimReader decodes a ChampSim instruction trace (the paper
// artifact's format) into a branch Source; plain and gzip streams are
// supported.
func NewChampSimReader(r io.Reader) (*trace.ChampSimReader, error) {
	return trace.NewChampSimReader(r)
}

// ExportChampSim writes a branch stream as a ChampSim instruction trace,
// runnable in the paper's reference artifact. It stops after maxInstr
// instructions and returns the instruction and branch counts written.
func ExportChampSim(w io.Writer, src Source, maxInstr uint64) (instructions, branches uint64, err error) {
	return trace.ExportChampSim(w, src, maxInstr)
}

// Experiments ------------------------------------------------------------------

// ExperimentScale bounds the experiment harness's simulation effort.
type ExperimentScale = experiments.Scale

// ExperimentResult is one reproduced table or figure.
type ExperimentResult = experiments.Result

// ExperimentIDs lists every reproducible paper artifact.
func ExperimentIDs() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) (string, bool) { return experiments.Describe(id) }

// RunExperiment reproduces one paper artifact.
func RunExperiment(id string, sc ExperimentScale) (*ExperimentResult, error) {
	return experiments.Run(id, sc)
}

// DefaultExperimentScale runs all 14 workloads at the scaled-down default
// instruction budget.
func DefaultExperimentScale() ExperimentScale { return experiments.DefaultScale() }

// QuickExperimentScale runs a four-workload subset at reduced budgets.
func QuickExperimentScale() ExperimentScale { return experiments.QuickScale() }

// Table is the plain-text table type experiments render into.
type Table = stats.Table

// BarChart renders labelled values as a horizontal ASCII bar chart.
type BarChart = stats.BarChart

// NewBarChart returns an empty chart with the given bar width.
func NewBarChart(title string, width int) *BarChart { return stats.NewBarChart(title, width) }

// VerifyExperiment checks a reproduced artifact against its registered
// paper-trend assertions (orderings and signs the reproduction must
// preserve); it returns the violations, empty when all trends hold.
func VerifyExperiment(res *ExperimentResult) []string { return experiments.Verify(res) }

// HasTrendCheck reports whether an experiment carries trend assertions.
func HasTrendCheck(id string) bool { return experiments.HasTrendCheck(id) }

// Front-end target substrate -------------------------------------------------

// BTBConfig shapes a branch target buffer (Table II: 16K entries, 8-way).
type BTBConfig = btb.Config

// BTB is a set-associative branch target buffer.
type BTB = btb.BTB

// ITTAGE is an indirect-target predictor with geometric history lengths.
type ITTAGE = btb.ITTAGE

// FrontEndStats aggregates a target-prediction pass.
type FrontEndStats = btb.FrontEndStats

// DefaultBTB returns the Table II BTB configuration.
func DefaultBTB() BTBConfig { return btb.DefaultConfig() }

// NewBTB builds a branch target buffer.
func NewBTB(cfg BTBConfig) (*BTB, error) { return btb.New(cfg) }

// NewITTAGE builds the indirect-target predictor (nil lens = defaults).
func NewITTAGE(lens []int) *ITTAGE { return btb.NewITTAGE(lens) }

// RunFrontEnd drives the BTB and ITTAGE over a branch stream.
func RunFrontEnd(src Source, b *BTB, it *ITTAGE, maxInstr uint64) (FrontEndStats, error) {
	return btb.RunFrontEnd(src, b, it, maxInstr)
}
