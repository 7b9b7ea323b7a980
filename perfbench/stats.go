package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations collects per-batch samples in milliseconds.
type durations []float64

func (d *durations) add(x time.Duration) { *d = append(*d, float64(x.Nanoseconds())/1e6) }

// cpuSeconds is the process's user+system CPU time. Every role of a
// workload (client, gateway, backends) lives in this one process, so the
// figure charges all of them.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// liveHeapMB forces a collection and returns the live heap in MB. It is
// called from the driving goroutine at fixed points of a run, never from
// a sampler, so it reads the same program state on every run.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window is one consecutive slice of the timed phase. A run reports the
// median over its windows of the rates and of the p99, so a burst of
// outside load that spoils one window does not move the run's figure.
type window struct {
	start    time.Time
	cpu0     float64
	branches int64   // branches completed before the window opened
	sample   int     // index of the window's first batch sample
	Rate     float64 `json:"branches_per_s"`
	CPURate  float64 `json:"branches_per_cpu_s"`
	P99      float64 `json:"batch_p99_ms"`
	Samples  int     `json:"samples"`
}

// cut closes the window in progress, if any, and opens the next. The
// harness opens the first window when the timed phase starts; a
// workload cuts at its window boundaries, and the timed phase ends on
// one.
func (r *result) cut() {
	now, cpu := time.Now(), cpuSeconds()
	if w := r.open; !w.start.IsZero() {
		b := float64(r.branches - w.branches)
		w.Samples = len(r.batches) - w.sample
		w.Rate = b / now.Sub(w.start).Seconds()
		w.CPURate = b / (cpu - w.cpu0)
		w.P99 = quantile(r.batches[w.sample:], 0.99)
		r.windows = append(r.windows, w)
	}
	r.open = window{start: now, cpu0: cpu, branches: r.branches, sample: len(r.batches)}
}

// windowMedians returns the median over windows of the throughput, the
// CPU-normalized throughput and the p99 batch time.
func (r *result) windowMedians() (rate, cpuRate, p99 float64) {
	var a, b, c []float64
	for _, w := range r.windows {
		a, b, c = append(a, w.Rate), append(b, w.CPURate), append(c, w.P99)
	}
	return median(a), median(b), median(c)
}
