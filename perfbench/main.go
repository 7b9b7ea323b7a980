// Command perfbench is the repository's benchmark: three workloads, each
// run in its own process and driven by one closed-loop client with one
// batch outstanding, that measure the simulator and the served path end
// to end and, in a separate traced run, layer by layer. See README.md.
//
//	go run . --workload sim-offline --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. The line before it
// carries the seed, the environment stamp and the sample counts. The
// process exits non-zero when any output fails its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Later repetitions reuse memory the first one faulted in, so
// the median is not at the mercy of page-fault timing.
const setupReps = 3

// runCfg is what every workload receives.
type runCfg struct {
	seed    uint64
	rec     *recorder // nil unless --trace 1
	workdir string    // scratch directory inside the checkout
}

// result is what a run measured.
type result struct {
	branches  int64     // branches completed in the timed phase
	batches   durations // per-batch client-observed times, ms
	windows   []window  // consecutive slices of the timed phase
	open      window    // the window in progress
	attempted int       // batches attempted in the timed phase
	failed    int       // batches that errored or belong to a session failing its check
	mpki      float64
	problems  []string // every failed check, for the report
	layers    map[string]float64
	info      map[string]any
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadImpl is one workload. inputs and start together are the
// set-up; run is the timed phase; check and layers run after it.
type workloadImpl interface {
	inputs() error // build programs and streams
	start() error  // construct predictors, servers, connection; create sessions
	run(d time.Duration, res *result) error
	check(res *result)  // the correctness gate
	layers(res *result) // per-layer measurements, traced runs only
	stop()
}

var workloads = map[string]func(*runCfg) workloadImpl{
	"sim-offline":      func(c *runCfg) workloadImpl { return &simOffline{cfg: c} },
	"wire-cluster":     func(c *runCfg) workloadImpl { return &wireCluster{cfg: c} },
	"json-store-churn": func(c *runCfg) workloadImpl { return &jsonStore{cfg: c} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "sim-offline, wire-cluster or json-store-churn")
	seed := flag.Uint64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of sim-offline, wire-cluster, json-store-churn, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(*name, mk, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, mk func(*runCfg) workloadImpl, seed uint64, seconds float64, traced bool) error {
	root := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	cfg := &runCfg{seed: seed, workdir: workdir}
	if traced {
		cfg.rec = newRecorder()
	}
	env := stampEnv(workdir)
	if env.CkptFS != "tmpfs" {
		fmt.Fprintf(os.Stderr, "perfbench: warning: checkpoint directory %s is on %s, not tmpfs; checkpoint fsyncs add disk noise to json-store-churn\n", workdir, env.CkptFS)
	}

	var w workloadImpl
	var setups []float64
	var heapBase float64
	for i := 0; i < setupReps; i++ {
		w = mk(cfg)
		t0 := time.Now()
		if err := w.inputs(); err != nil {
			return fmt.Errorf("inputs: %w", err)
		}
		d := time.Since(t0)
		if i == setupReps-1 {
			heapBase = liveHeapMB()
		}
		t1 := time.Now()
		if err := w.start(); err != nil {
			w.stop()
			return fmt.Errorf("start: %w", err)
		}
		setups = append(setups, (d + time.Since(t1)).Seconds())
		if i < setupReps-1 {
			w.stop()
			liveHeapMB() // collect this repetition's garbage before the next one is timed
		}
	}
	defer w.stop()

	res := &result{layers: map[string]float64{}, info: map[string]any{}}
	tot0, steal0 := cpuTicks()
	t0 := time.Now()
	res.cut()
	if err := w.run(time.Duration(seconds*float64(time.Second)), res); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	timed := time.Since(t0)
	tot1, steal1 := cpuTicks()
	if tot1 > tot0 {
		res.info["steal_share"] = float64(steal1-steal0) / float64(tot1-tot0)
	}
	heapLive := liveHeapMB() - heapBase
	w.check(res)
	if traced {
		cfg.rec.stop()
		w.layers(res)
	}

	correct := len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	okShare := 0.0
	if res.attempted > 0 {
		okShare = float64(res.attempted-res.failed) / float64(res.attempted)
	}
	samples := len(res.batches)
	rate, cpuRate, p99 := res.windowMedians()
	p50 := median(res.batches)
	metrics := map[string]metric{}
	if traced {
		res.layers["trace.branches_per_s"] = rate
		res.layers["trace.batch_p50_ms"] = p50
		for _, l := range layerMetrics {
			metrics[l.name] = metric{res.layers[l.name], l.unit}
		}
	} else {
		metrics = map[string]metric{
			"setup_s":            {median(setups), "s"},
			"branches_per_s":     {rate, "1/s"},
			"branches_per_cpu_s": {cpuRate, "1/s"},
			"batch_p50_ms":       {p50, "ms"},
			"batch_p99_ms":       {p99, "ms"},
			"ok_share":           {okShare, "share"},
			"mpki":               {res.mpki, "MPKI"},
			"heap_live_mb":       {heapLive, "MB"},
		}
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.fail("metric %s is %v", k, m.Value)
			correct = false
		}
	}

	res.info["workload"] = name
	res.info["seed"] = seed
	res.info["seconds"] = seconds
	res.info["traced"] = traced
	res.info["env"] = env
	res.info["setup_s_samples"] = setups
	res.info["batch_samples"] = samples
	res.info["windows"] = res.windows
	res.info["branches"] = res.branches
	res.info["timed_s"] = timed.Seconds()
	sort.Strings(res.problems)
	res.info["problems"] = res.problems
	line, err := json.Marshal(map[string]any{"info": res.info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		return fmt.Errorf("%s seed %d: %d of %d batches failed their check", name, seed, res.failed, res.attempted)
	}
	return nil
}
