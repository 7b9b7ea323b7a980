package main

import (
	"fmt"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/hashutil"
	"llbpx/internal/workload"
)

// packed is one branch in 12 bytes instead of core.Branch's 24. The
// synthetic programs place every PC and target below 4 GiB and keep
// instruction gaps small, so the packing is lossless; pack checks that
// per branch and fails the run rather than truncate. Halving the stream
// footprint lets a run hold enough distinct programs for its aggregate
// MPKI and throughput to be steady across seeds.
type packed struct {
	pc, target uint32
	gap        uint16
	kind       uint8
	taken      bool
}

func (p packed) branch() core.Branch {
	return core.Branch{PC: uint64(p.pc), Target: uint64(p.target), Kind: core.BranchKind(p.kind), Taken: p.taken, InstrGap: uint32(p.gap)}
}

func pack(b core.Branch) (packed, error) {
	p := packed{pc: uint32(b.PC), target: uint32(b.Target), gap: uint16(b.InstrGap), kind: uint8(b.Kind), taken: b.Taken}
	if p.branch() != b {
		return packed{}, fmt.Errorf("branch %+v does not fit the packed stream format", b)
	}
	return p, nil
}

// stream is one program's pre-generated branch sequence.
type stream struct {
	name string // preset name
	seed uint64 // Profile.Seed the program was built with
	bs   []packed
}

func (s *stream) String() string { return fmt.Sprintf("%s/%d", s.name, s.seed) }

// subSeed derives the Profile.Seed of the i-th program of a preset from
// the run's --seed, so one seed fixes every input of the run.
func subSeed(seed uint64, preset string, i int) uint64 {
	h := seed*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(preset) {
		h = hashutil.Mix64(h ^ uint64(c))
	}
	return h | 1
}

// genStats accumulates stream-generation time for the
// workload.gen_ns_per_branch layer metric.
type genStats struct {
	d        time.Duration
	branches int
}

// generate builds the preset's program with the given seed and records
// its first n branches.
func generate(preset string, seed uint64, n int, gs *genStats) (*stream, error) {
	prof, err := workload.ByName(preset)
	if err != nil {
		return nil, err
	}
	prof.Seed = seed
	prog, err := workload.Build(prof)
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(prog)
	s := &stream{name: preset, seed: seed, bs: make([]packed, n)}
	t0 := time.Now()
	for i := range s.bs {
		b, _ := g.Next()
		if s.bs[i], err = pack(b); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", preset, seed, err)
		}
	}
	gs.d += time.Since(t0)
	gs.branches += n
	return s, nil
}

// unpack fills dst (resized to n) with the n branches of s starting at
// position pos, wrapping around the end of the stream: served sessions
// replay their stream cyclically, so a session may run for any number of
// batches on a bounded amount of memory.
func (s *stream) unpack(dst []core.Branch, pos, n int) []core.Branch {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, s.bs[(pos+i)%len(s.bs)].branch())
	}
	return dst
}

// cycleSource yields the first n branches of s's cyclic replay. It is
// the local reference a served session is checked against.
type cycleSource struct {
	s      *stream
	pos, n int
}

func (c *cycleSource) Next() (core.Branch, bool) {
	if c.pos >= c.n {
		return core.Branch{}, false
	}
	b := c.s.bs[c.pos%len(c.s.bs)].branch()
	c.pos++
	return b, true
}

// chunkSource replays a stream once and stamps the wall clock every
// chunk branches pulled; consecutive stamps bound the time sim.Run spent
// on one chunk. It is the benchmark's only hook into sim.Run's timing.
type chunkSource struct {
	s      *stream
	pos    int
	chunk  int
	last   time.Time
	sample func(time.Duration)
}

func (c *chunkSource) Next() (core.Branch, bool) {
	if c.pos >= len(c.s.bs) {
		return core.Branch{}, false
	}
	if c.pos%c.chunk == 0 {
		now := time.Now()
		if c.pos > 0 {
			c.sample(now.Sub(c.last))
		}
		c.last = now
	}
	b := c.s.bs[c.pos].branch()
	c.pos++
	return b, true
}
