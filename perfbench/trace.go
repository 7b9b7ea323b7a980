package main

import (
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llbpx/internal/core"
)

// Tracing records spans only from the benchmark's own code: around its
// calls into the program, at the sockets of the listeners it creates,
// and around the http.Handlers it mounts. Nothing is threaded through
// program code. Every workload keeps one batch outstanding, so each
// socket or handler span that falls inside a client batch's interval
// belongs to that batch; nest recovers the tree by containment.

// span is one timed interval. Times are offsets from the recorder's base
// on the monotonic clock.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into recorder.spans, -1 for a root
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: every method is then a no-op.
type recorder struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	stopped bool
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.base)
}

func (r *recorder) add(name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.stopped {
		r.spans = append(r.spans, span{name: name, start: start, end: end, parent: -1})
	}
	r.mu.Unlock()
}

// stop ends recording; later spans are dropped. Servers keep running
// after the timed phase (health probes, replica ships), and the
// analysis reads spans without the lock, so it runs only after stop.
func (r *recorder) stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// byName returns the indices of the spans called name, in start order.
func (r *recorder) byName(name string) []int {
	var out []int
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return r.spans[out[a]].start < r.spans[out[b]].start })
	return out
}

// nest makes each child-named span a child of the parent-named span
// that contains it. Parents of one name never overlap (one batch
// outstanding), so a sweep in start order suffices. Children contained
// by no parent stay roots.
func (r *recorder) nest(child, parent string) {
	ps := r.byName(parent)
	j := 0
	for _, ci := range r.byName(child) {
		c := r.spans[ci]
		for j < len(ps) && r.spans[ps[j]].end < c.start {
			j++
		}
		if j < len(ps) {
			p := r.spans[ps[j]]
			if p.start <= c.start && c.end <= p.end {
				r.spans[ci].parent = ps[j]
			}
		}
	}
}

// selfTimes returns, for every span called name (only those with a
// parent when nestedOnly), its duration minus the part of its interval
// that its children cover.
func (r *recorder) selfTimes(name string, nestedOnly bool) []time.Duration {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var out []time.Duration
	for _, i := range r.byName(name) {
		p := r.spans[i]
		if nestedOnly && p.parent < 0 {
			continue
		}
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered := time.Duration(0)
		cur := p.start
		for _, c := range cs {
			s, e := max(c.start, cur), min(c.end, p.end)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		out = append(out, p.dur()-covered)
	}
	return out
}

// nested returns the durations of the spans called name that have a
// parent, i.e. that belong to a client batch.
func (r *recorder) nested(name string) []time.Duration {
	var out []time.Duration
	for _, i := range r.byName(name) {
		if r.spans[i].parent >= 0 {
			out = append(out, r.spans[i].dur())
		}
	}
	return out
}

// durations returns the durations of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, i := range r.byName(name) {
		out = append(out, r.spans[i].dur())
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// listener wraps a listener the benchmark created so that every accepted
// connection reports its request-to-reply intervals as spans called name
// and counts the bytes it carries.
type listener struct {
	net.Listener
	rec    *recorder
	name   string
	rx, tx atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, l: l}, nil
}

// conn turns the byte traffic of one server-side connection into spans:
// a span opens at the last read before a write (the request has fully
// arrived) and closes at that write (the reply starts leaving).
type conn struct {
	net.Conn
	l        *listener
	mu       sync.Mutex
	lastRead time.Duration
	pending  bool
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.l.rec.now()
		c.mu.Lock()
		c.lastRead, c.pending = t, true
		c.mu.Unlock()
		c.l.rx.Add(int64(n))
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	t := c.l.rec.now()
	c.mu.Lock()
	if c.pending {
		c.pending = false
		c.l.rec.add(c.l.name, c.lastRead, t)
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.l.tx.Add(int64(n))
	return n, err
}

// listen opens a loopback listener, wrapped when tracing is on.
func listen(rec *recorder, name string) (net.Listener, *listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || rec == nil {
		return ln, nil, err
	}
	w := &listener{Listener: ln, rec: rec, name: name}
	return w, w, nil
}

// handler times ServeHTTP. Replica installs on a standby are recorded
// under their own name: they run outside any client batch.
type handler struct {
	h   http.Handler
	rec *recorder
}

func (h handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.rec.now()
	h.h.ServeHTTP(w, r)
	name := "http.other"
	switch {
	case strings.HasSuffix(r.URL.Path, "/predict"):
		name = "serve.handler"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/standby"):
		name = "replica.install"
	}
	h.rec.add(name, t0, h.rec.now())
}

func wrapHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return handler{h: h, rec: rec}
}

// timedPredictor wraps a predictor handed to sim.Run and records each
// core.RunBatch call as a "predictor" span, so sim.Run's own overhead is
// its span minus these children.
type timedPredictor struct {
	core.Predictor
	rec *recorder
}

func (t timedPredictor) RunBatch(batch []core.Branch, preds []core.Prediction) {
	t0 := t.rec.now()
	core.RunBatch(t.Predictor, batch, preds)
	t.rec.add("predictor", t0, t.rec.now())
}

func (t timedPredictor) Stats() map[string]float64 {
	if sp, ok := t.Predictor.(core.StatsProvider); ok {
		return sp.Stats()
	}
	return nil
}

func (t timedPredictor) ResetStats() {
	if r, ok := t.Predictor.(core.Resetter); ok {
		r.ResetStats()
	}
}
