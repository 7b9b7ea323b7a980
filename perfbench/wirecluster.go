package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"llbpx/internal/cluster"
	"llbpx/internal/core"
	"llbpx/internal/serve"
	"llbpx/internal/wire"
)

// wire-cluster: one wire.Client issuing sequential Predict calls into an
// llbpgw gateway's binary frontend, in front of two in-process llbpd
// backends (serve.Server + wire.Server + HTTP admin, all on loopback)
// with hot-standby replication on at the default ship cadence. Sixteen
// warm tsl-8k sessions (two programs of each of eight presets, so the
// aggregate MPKI is steady across seeds), 1024-branch batches, round
// robin. tsl-8k has no second level and transport, routing and
// replication are most of the time per branch, so this workload moves
// with wire/cluster/replica changes and stays flat under second-level
// predictor changes.
const (
	wcPredictor = "tsl-8k"
	wcStreamLen = 128 * chunk // branches per session stream, replayed cyclically
	wcPrograms  = 2           // programs per preset
	wcFixed     = 4000        // fixed-work point, in timed batches
	wcWindow    = 1000        // batches per window
)

var wcPresets = []string{"nodeapp", "phpwiki", "tpcc", "twitter", "wikipedia", "kafka", "spring", "tomcat"}

type backend struct {
	srv *serve.Server
	ws  *wire.Server
	hs  *http.Server
	wln net.Listener
}

type wireCluster struct {
	cfg      *runCfg
	streams  []*stream
	gen      genStats
	backends []*backend
	gw       *cluster.Gateway
	gln      net.Listener
	front    *listener // traced frontend socket, for byte counts
	client   *wire.Client
	sessions []*session
	wg       sync.WaitGroup
	timed    map[string]int
	batch    []core.Branch
	ok       wire.PredictOK
	rx0, tx0 int64
	rx1, tx1 int64
}

func (w *wireCluster) inputs() error {
	for i := 0; i < wcPrograms; i++ {
		for _, p := range wcPresets {
			s, err := generate(p, subSeed(w.cfg.seed, p, i), wcStreamLen, &w.gen)
			if err != nil {
				return err
			}
			w.streams = append(w.streams, s)
		}
	}
	return nil
}

func (w *wireCluster) serve(ln net.Listener, serveFn func(net.Listener) error) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_ = serveFn(ln) // returns once stop closes the listener
	}()
}

func (w *wireCluster) start() error {
	rec := w.cfg.rec
	var members []cluster.Backend
	for i := 0; i < 2; i++ {
		b := &backend{srv: serve.New(serve.Config{DefaultPredictor: wcPredictor})}
		w.backends = append(w.backends, b)
		var err error
		if b.wln, _, err = listen(rec, "backend.socket"); err != nil {
			return err
		}
		hln, _, err := listen(nil, "")
		if err != nil {
			return err
		}
		b.ws = wire.NewServer(b.srv, wire.Config{})
		b.hs = &http.Server{Handler: wrapHandler(rec, b.srv)}
		w.serve(b.wln, b.ws.Serve)
		w.serve(hln, b.hs.Serve)
		members = append(members, cluster.Backend{Name: sessionID("b", i), WireAddr: b.wln.Addr().String(), HTTPURL: "http://" + hln.Addr().String()})
	}
	var err error
	if w.gw, err = cluster.New(cluster.Config{Backends: members, Replicate: true}); err != nil {
		return err
	}
	if w.gln, w.front, err = listen(rec, "gw.socket"); err != nil {
		return err
	}
	w.serve(w.gln, w.gw.ServeWire)
	w.client = wire.NewClient(w.gln.Addr().String())
	// Creating a session is its first batch; the timed phase starts with
	// every session live and replicated.
	for i, s := range w.streams {
		ss := &session{id: sessionID("wc", i), s: s}
		w.sessions = append(w.sessions, ss)
		if err := w.send(ss, nil); err != nil {
			return err
		}
	}
	return nil
}

// send issues the session's next batch and waits for the reply. res is
// nil outside the timed phase.
func (w *wireCluster) send(ss *session, res *result) error {
	w.batch = ss.s.unpack(w.batch, ss.pos, chunk)
	num := ss.batches + 1
	rec := w.cfg.rec
	c0, t0 := rec.now(), time.Now()
	err := w.client.Predict(context.Background(), ss.id, wcPredictor, num, w.batch, &w.ok)
	el := time.Since(t0)
	if res != nil {
		rec.add("client.batch", c0, rec.now())
		res.attempted++
		res.batches.add(el)
		w.timed[ss.id]++
	}
	if err == nil && (w.ok.N != len(w.batch) || w.ok.Flags&wire.FlagDuplicate != 0) {
		err = fmt.Errorf("reply for %d branches (flags %#x) to a %d-branch batch", w.ok.N, w.ok.Flags, len(w.batch))
	}
	if err != nil {
		return fmt.Errorf("session %s batch %d: %w", ss.id, num, err)
	}
	ss.pos += len(w.batch)
	ss.batches = num
	ss.last = sessionStats(w.ok.Stats)
	return nil
}

func sessionStats(st wire.WireStats) serve.SessionStats {
	return serve.SessionStats{
		Instructions:  st.Instructions,
		CondBranches:  st.CondBranches,
		Mispredicts:   st.Mispredicts,
		UncondCount:   st.UncondCount,
		SecondLevelOK: st.SecondLevelOK,
		Batches:       st.Batches,
	}
}

func (w *wireCluster) run(d time.Duration, res *result) error {
	w.timed = map[string]int{}
	if w.front != nil {
		w.rx0, w.tx0 = w.front.rx.Load(), w.front.tx.Load()
	}
	t0 := time.Now()
	for i := 0; i < wcFixed || time.Since(t0) < d || i%wcWindow != 0; i++ {
		if err := w.send(w.sessions[i%len(w.sessions)], res); err != nil {
			return err
		}
		res.branches += chunk
		if i+1 == wcFixed {
			w.atFixed(res)
		}
		if (i+1)%wcWindow == 0 {
			res.cut()
		}
	}
	if w.front != nil {
		w.rx1, w.tx1 = w.front.rx.Load(), w.front.tx.Load()
	}
	return nil
}

// atFixed records what must repeat exactly for a seed: every session's
// statistics and, in a traced run, the serving counters.
func (w *wireCluster) atFixed(res *result) {
	for _, ss := range w.sessions {
		ss.fixed = ss.last
	}
	if w.cfg.rec == nil {
		return
	}
	var srvs []*serve.Server
	for _, b := range w.backends {
		srvs = append(srvs, b.srv)
	}
	serverLayers(res, srvs...)
	st := w.gw.Stats()
	res.layers["cluster.routed_batches"] = float64(st.RoutedBatches)
	res.layers["cluster.forward_retries"] = float64(st.ForwardRetries)
	res.layers["cluster.reroutes"] = float64(st.Reroutes)
}

func (w *wireCluster) check(res *result) {
	for _, ss := range w.sessions {
		_, fin, err := w.client.CloseSession(context.Background(), ss.id)
		if err != nil {
			res.fail("close %s: %v", ss.id, err)
			res.failed += w.timed[ss.id]
			continue
		}
		ss.last = sessionStats(fin)
	}
	gate(res, wcPredictor, w.sessions, w.timed)
	res.mpki = sessionMPKI(w.sessions)
}

func (w *wireCluster) layers(res *result) {
	rec := w.cfg.rec
	rec.nest("gw.socket", "client.batch")
	rec.nest("backend.socket", "gw.socket")
	clientNet := usOf(msOf(rec.selfTimes("client.batch", false)))
	gwSelf := usOf(msOf(rec.selfTimes("gw.socket", true)))
	back := usOf(msOf(rec.nested("backend.socket")))
	res.layers["cluster.client_net_us_p50"] = median(clientNet)
	res.layers["cluster.gateway_self_us_p50"] = median(gwSelf)
	res.layers["cluster.gateway_self_us_p99"] = quantile(gwSelf, 0.99)
	res.layers["serve.backend_us_p50"] = median(back)
	res.layers["serve.backend_us_p99"] = quantile(back, 0.99)
	res.layers["trace.remainder_ms"] = median(res.batches) - (median(clientNet)+median(gwSelf)+median(back))/1000
	res.layers["replica.install_ms_p50"] = median(msOf(rec.durations("replica.install")))
	res.layers["wire.bytes_per_branch"] = float64(w.rx1-w.rx0+w.tx1-w.tx0) / float64(res.branches)
	res.layers["workload.gen_ns_per_branch"] = float64(w.gen.d.Nanoseconds()) / float64(w.gen.branches)
	predictorLayers(res, w.streams[:2])
	codecLayers(res, w.streams, wcPredictor)
	snapshotLayers(res, wcPredictor, w.streams[0])
	res.info["trace_spans"] = len(rec.spans)
}

func (w *wireCluster) stop() {
	if w.client != nil {
		w.client.Close()
	}
	if w.gln != nil {
		w.gln.Close()
	}
	if w.gw != nil {
		w.gw.Close()
	}
	for _, b := range w.backends {
		b.srv.Drain()
		if b.ws != nil {
			b.ws.Close()
		}
		if b.hs != nil {
			b.hs.Close()
		}
	}
	w.wg.Wait()
}
