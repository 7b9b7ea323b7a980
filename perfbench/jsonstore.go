package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/serve"
)

// json-store-churn: one keep-alive serve.Client (HTTP/JSON) straight to
// one llbpd running llbp-x, with a pattern-store budget that holds only
// a few sessions and checkpoints in the run's scratch directory. Four of
// every five batches go to one of jsHot hot sessions; every fifth goes
// to the next of jsCold cold sessions, which has been spilled since its
// last batch and must be restored. Eight hot programs keep the
// aggregate MPKI steady across seeds. The predictor layer runs pooled here,
// not private as in sim-offline, and the JSON codec, patternpool and
// snapshot layers carry the load: p50 is the hot path, p99 the restore
// path.
const (
	jsPredictor = "llbp-x"
	jsHot       = 8
	jsCold      = 32
	jsBudget    = 32 << 20    // holds the hot sessions and a few cold ones
	jsHotLen    = 128 * chunk // branches per hot stream, replayed cyclically
	jsColdLen   = 32 * chunk
	jsWindow    = 1000 // batches per window: a p99 with 10 samples beyond it
	jsFixed     = 3000 // fixed-work point, in timed batches; the phase's minimum
)

var (
	jsHotPresets  = []string{"nodeapp", "tpcc", "spring", "merced", "whiskey", "delta", "twitter", "phpwiki"}
	jsColdPresets = []string{"wikipedia", "kafka", "tomcat", "chirper", "finagle-http", "charlie", "nodeapp", "spring"}
)

type jsonStore struct {
	cfg      *runCfg
	hot      []*stream
	cold     []*stream // cold session j replays cold[j%len(cold)]
	gen      genStats
	srv      *serve.Server
	hs       *http.Server
	ln       *listener // traced socket, for byte counts
	hc       *http.Client
	client   *serve.Client
	sessions []*session // hot sessions first
	wg       sync.WaitGroup
	batch    []core.Branch
	timed    map[string]int
	hotMs    durations
	restMs   durations
	rx0, tx0 int64
	rx1, tx1 int64
}

func (w *jsonStore) inputs() error {
	for _, p := range jsHotPresets {
		s, err := generate(p, subSeed(w.cfg.seed, p, 0), jsHotLen, &w.gen)
		if err != nil {
			return err
		}
		w.hot = append(w.hot, s)
	}
	for _, p := range jsColdPresets {
		s, err := generate(p, subSeed(w.cfg.seed, p, 1), jsColdLen, &w.gen)
		if err != nil {
			return err
		}
		w.cold = append(w.cold, s)
	}
	return nil
}

func (w *jsonStore) start() error {
	dir, err := os.MkdirTemp(w.cfg.workdir, "ckpt-")
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{
		DefaultPredictor: jsPredictor,
		StoreBudget:      jsBudget,
		SnapshotDir:      dir,
		SessionTTL:       -1, // only budget pressure spills sessions
	})
	var ln net.Listener
	if ln, w.ln, err = listen(w.cfg.rec, "json.socket"); err != nil {
		return err
	}
	w.hs = &http.Server{Handler: wrapHandler(w.cfg.rec, w.srv)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = w.hs.Serve(ln) // returns once stop closes the server
	}()
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	w.client = serve.NewClient("http://"+ln.Addr().String(), w.hc)
	for i, s := range w.hot {
		w.sessions = append(w.sessions, &session{id: sessionID("hot", i), s: s})
	}
	for j := 0; j < jsCold; j++ {
		w.sessions = append(w.sessions, &session{id: sessionID("cold", j), s: w.cold[j%len(w.cold)]})
	}
	// Creating a session is its first batch; by the end of set-up the
	// budget has already spilled most cold sessions.
	for _, ss := range w.sessions {
		if err := w.send(ss, nil); err != nil {
			return err
		}
	}
	return nil
}

// send issues the session's next batch and waits for the reply. res is
// nil outside the timed phase.
func (w *jsonStore) send(ss *session, res *result) error {
	w.batch = ss.s.unpack(w.batch, ss.pos, chunk)
	rec := w.cfg.rec
	c0, t0 := rec.now(), time.Now()
	resp, err := w.client.Predict(context.Background(), ss.id, jsPredictor, w.batch)
	el := time.Since(t0)
	if res != nil {
		rec.add("client.batch", c0, rec.now())
		res.attempted++
		res.batches.add(el)
		w.timed[ss.id]++
		if err == nil && resp.Restored {
			w.restMs.add(el)
		} else {
			w.hotMs.add(el)
		}
	}
	if err == nil && len(resp.Predictions) != len(w.batch) {
		err = fmt.Errorf("%d predictions for a %d-branch batch", len(resp.Predictions), len(w.batch))
	}
	if err != nil {
		return fmt.Errorf("session %s batch %d: %w", ss.id, ss.batches+1, err)
	}
	ss.pos += len(w.batch)
	ss.batches++
	ss.last = resp.Stats
	return nil
}

func (w *jsonStore) run(d time.Duration, res *result) error {
	w.timed = map[string]int{}
	if w.ln != nil {
		w.rx0, w.tx0 = w.ln.rx.Load(), w.ln.tx.Load()
	}
	t0 := time.Now()
	hot, cold := 0, 0
	for i := 0; i < jsFixed || time.Since(t0) < d || i%jsWindow != 0; i++ {
		var ss *session
		if i%5 == 4 {
			ss = w.sessions[jsHot+cold%jsCold]
			cold++
		} else {
			ss = w.sessions[hot%jsHot]
			hot++
		}
		if err := w.send(ss, res); err != nil {
			return err
		}
		res.branches += chunk
		if i+1 == jsFixed {
			for _, ss := range w.sessions {
				ss.fixed = ss.last
			}
			if w.cfg.rec != nil {
				serverLayers(res, w.srv)
			}
		}
		if (i+1)%jsWindow == 0 {
			res.cut()
		}
	}
	if w.ln != nil {
		w.rx1, w.tx1 = w.ln.rx.Load(), w.ln.tx.Load()
	}
	return nil
}

func (w *jsonStore) check(res *result) {
	replays := gate(res, jsPredictor, w.sessions, w.timed)
	res.mpki = sessionMPKI(w.sessions)
	if w.cfg.rec != nil {
		// The simulated counts come from the hot sessions' local replays,
		// which the gate has just shown to be bit-exact with the server.
		var m sumStats
		for _, ss := range w.sessions[:jsHot] {
			m.add(replays[ss.id])
		}
		m.report(res)
	}
}

func (w *jsonStore) layers(res *result) {
	rec := w.cfg.rec
	rec.nest("serve.handler", "client.batch")
	clientNet := msOf(rec.selfTimes("client.batch", false))
	handler := msOf(rec.nested("serve.handler"))
	res.layers["serve.client_net_ms_p50"] = median(clientNet)
	res.layers["serve.handler_ms_p50"] = median(handler)
	res.layers["serve.handler_ms_p99"] = quantile(handler, 0.99)
	res.layers["trace.remainder_ms"] = median(res.batches) - median(clientNet) - median(handler)
	res.layers["serve.hot_batch_ms_p50"] = median(w.hotMs)
	res.layers["serve.restore_batch_ms_p50"] = median(w.restMs)
	res.layers["serve.json_bytes_per_branch"] = float64(w.rx1-w.rx0+w.tx1-w.tx0) / float64(res.branches)
	res.layers["workload.gen_ns_per_branch"] = float64(w.gen.d.Nanoseconds()) / float64(w.gen.branches)
	predictorLayers(res, w.hot[:2])
	codecLayers(res, w.hot, jsPredictor)
	snapshotLayers(res, jsPredictor, w.hot[0])
	res.info["restored_batches"] = len(w.restMs)
	res.info["trace_spans"] = len(rec.spans)
}

func (w *jsonStore) stop() {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.hs != nil {
		w.hs.Close()
	}
	w.wg.Wait()
	if w.srv != nil {
		w.srv.Drain()
	}
}
