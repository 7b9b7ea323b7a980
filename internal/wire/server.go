package wire

import (
	"bufio"
	"context"
	"errors"
	"hash/maphash"
	"io"
	"net"
	"sync"
	"time"

	"llbpx/internal/core"
	"llbpx/internal/faults"
	"llbpx/internal/serve"
)

// Config parameterizes the wire listener. The zero value is usable.
type Config struct {
	// Executors is the per-connection parallel-execution width: frames
	// are sharded over this many executor goroutines by session ID, so
	// one connection multiplexing many sessions still executes them in
	// parallel while every single session stays in arrival order
	// (default 4).
	Executors int
	// Window bounds decoded-but-unanswered frames per connection; a
	// client that pipelines past it blocks in the kernel, which is the
	// backpressure signal (default 64).
	Window int
	// IdleTimeout drops a connection with no complete frame for this
	// long (default 2m; negative disables).
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the preamble exchange (default 5s).
	HandshakeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 4
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// Handler executes the request frames a Server decodes. Each method
// appends the response frame for seq to dst and returns it: a PredictOK
// or CloseOK, or a Nack. Calls for one session arrive in frame order;
// calls for different sessions run concurrently. ctx is cancelled when
// the connection dies.
type Handler interface {
	// Predict executes one decoded batch. p, its strings and its
	// branches belong to the connection and stay valid until Predict
	// returns; preds is len(p.Branches) of scratch.
	Predict(ctx context.Context, dst []byte, seq uint64, p *Predict, preds []core.Prediction) []byte
	// Close deletes a session and answers with its final statistics.
	Close(ctx context.Context, dst []byte, seq uint64, session string) []byte
}

// Server is the binary-protocol listener: the connection pipeline, with
// the execution step left to a Handler. llbpd's (NewServer) owns no
// session, admission, drain, or checkpoint state of its own: every frame
// drives the same serve.Server.Predict the HTTP mux calls, so a session
// is reachable from either protocol under the same ID. The cluster
// gateway runs its wire frontend on the same pipeline with its own
// forwarding Handler.
type Server struct {
	h        Handler
	maxBatch int
	faults   *faults.Injector // arms FaultRead and FaultWrite; nil = none
	cfg      Config
	m        *serve.WireMetrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a serve.Server with a binary-protocol frontend. The
// backend's fault injector arms the wire's own read and write sites, so
// one -inject spec covers both protocols.
func NewServer(backend *serve.Server, cfg Config) *Server {
	bc := backend.Config()
	retryAfter := time.Second
	if bc.AdmitTimeout > 0 {
		retryAfter = bc.AdmitTimeout
	}
	s := NewHandlerServer(backendHandler{backend, retryAfter}, bc.MaxBatch, backend.WireMetrics(), cfg)
	s.faults = bc.Faults
	return s
}

// NewHandlerServer serves h over the binary protocol. maxBatch bounds a
// decoded batch (larger ones are NACKed bad_request), and the
// connection pipeline records its traffic in m.
func NewHandlerServer(h Handler, maxBatch int, m *serve.WireMetrics, cfg Config) *Server {
	return &Server{
		h:        h,
		maxBatch: maxBatch,
		cfg:      cfg.withDefaults(),
		m:        m,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.m.Conns.Inc()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, tears every connection down, and waits for the
// per-connection goroutines to exit. Batches already executing complete
// under the backend's drain barrier (serve.Server.Drain waits on them);
// their responses may be lost with the connection, which is exactly the
// case the sequencing contract lets clients retry through.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// job is one in-flight frame: decoded request state on the way in,
// encoded response bytes on the way out. A connection creates jobs on
// demand, up to Window, and recycles them through a free list, so the
// steady-state frame path performs no per-frame heap allocation and a
// closed-loop client grows one job's buffers, not Window of them.
type job struct {
	typ   byte
	seq   uint64
	start time.Time
	req   Predict // copied out of the read buffer (it is reused per frame)
	preds []core.Prediction
	out   []byte
}

// wireConn is the per-connection pipeline: one reader decoding frames,
// Executors goroutines executing them (sharded by session so a session
// keeps retire order), one writer serializing responses.
type wireConn struct {
	s      *Server
	c      net.Conn
	ctx    context.Context
	cancel context.CancelFunc
	quit   chan struct{}
	kill   sync.Once
	free   chan *job
	jobs   int // jobs created so far; only the reader touches it
	writeq chan *job
	execq  []chan *job
	seed   maphash.Seed
}

// acceptHandshake performs the server side of the preamble exchange on a
// freshly accepted connection: read the client's 6-byte preamble, verify
// magic and version, echo ours back. On any mismatch it returns an error
// without writing — say nothing a non-wire peer could misparse; the
// caller just hangs up.
func acceptHandshake(c net.Conn, timeout time.Duration) error {
	c.SetDeadline(time.Now().Add(timeout))
	var got [len(preamble)]byte
	if _, err := io.ReadFull(c, got[:]); err != nil {
		return err
	}
	if got != preamble {
		return malformedf("bad client preamble % x", got[:])
	}
	if _, err := c.Write(preamble[:]); err != nil {
		return err
	}
	return c.SetDeadline(time.Time{})
}

func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	if acceptHandshake(c, s.cfg.HandshakeTimeout) != nil {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	wc := &wireConn{
		s:      s,
		c:      c,
		ctx:    ctx,
		cancel: cancel,
		quit:   make(chan struct{}),
		free:   make(chan *job, s.cfg.Window),
		writeq: make(chan *job, s.cfg.Window),
		execq:  make([]chan *job, s.cfg.Executors),
		seed:   maphash.MakeSeed(),
	}
	defer cancel()
	var execWg sync.WaitGroup
	for i := range wc.execq {
		wc.execq[i] = make(chan *job, s.cfg.Window)
		execWg.Add(1)
		go func(q chan *job) {
			defer execWg.Done()
			wc.executor(q)
		}(wc.execq[i])
	}
	var writeWg sync.WaitGroup
	writeWg.Add(1)
	go func() {
		defer writeWg.Done()
		wc.writer()
	}()

	wc.reader() // returns on connection death, malformed stream, or Close
	for _, q := range wc.execq {
		close(q)
	}
	execWg.Wait()
	close(wc.writeq)
	writeWg.Wait()
}

// die tears the connection down once: the net.Conn closes (unblocking
// reader and writer) and the conn context cancels (unblocking executors
// parked in slot admission).
func (wc *wireConn) die() {
	wc.kill.Do(func() {
		close(wc.quit)
		wc.cancel()
		wc.c.Close()
	})
}

// shard maps a session ID to its executor, so one session's frames stay
// strictly ordered while distinct sessions run in parallel.
func (wc *wireConn) shard(session []byte) int {
	if len(wc.execq) == 1 {
		return 0
	}
	return int(maphash.Bytes(wc.seed, session) % uint64(len(wc.execq)))
}

// next returns a free job, creating one while fewer than Window exist.
// With Window jobs out, the reader waits for the writer to recycle one:
// that is the connection's backpressure. nil means the connection died.
func (wc *wireConn) next() *job {
	select {
	case j := <-wc.free:
		return j
	default:
	}
	if wc.jobs < wc.s.cfg.Window {
		wc.jobs++
		return &job{}
	}
	select {
	case j := <-wc.free:
		return j
	case <-wc.quit:
		return nil
	}
}

// reader is the connection's frame-decode loop. It owns the read buffer;
// everything a frame needs past the next read is copied into the job.
func (wc *wireConn) reader() {
	br := bufio.NewReaderSize(wc.c, 256<<10)
	var buf []byte
	var pr Predict
	for {
		// The read fault site models a torn network: an injected error
		// abandons the connection exactly like a peer vanishing
		// mid-frame would.
		if wc.s.faults.Fire(FaultRead) != nil {
			wc.die()
			return
		}
		if wc.s.cfg.IdleTimeout > 0 {
			wc.c.SetReadDeadline(time.Now().Add(wc.s.cfg.IdleTimeout))
		}
		body, nbuf, n, err := ReadFrame(br, buf)
		buf = nbuf
		wc.s.m.BytesRx.Add(uint64(n))
		if err != nil {
			wc.die()
			return
		}
		wc.s.m.FramesRx.Inc()
		typ, seq, payload, err := ParseHeader(body)
		if err != nil || (typ != FramePredict && typ != FrameClose && typ != FramePing) {
			// Anything else — response types, unknown types — is a
			// protocol violation that poisons framing trust.
			wc.die()
			return
		}
		j := wc.next()
		if j == nil {
			return
		}
		j.typ, j.seq, j.start = typ, seq, time.Now()
		switch typ {
		case FramePredict:
			pr.Branches = j.req.Branches // decode into the job's storage
			err := DecodePredict(payload, &pr, wc.s.maxBatch)
			j.req.Branches = pr.Branches
			if err == nil && len(pr.Branches) == 0 {
				err = errors.New("empty batch")
			}
			if err != nil {
				// The stream itself is intact (CRC passed): NACK this
				// frame and keep the connection.
				wc.nack(j, err)
				continue
			}
			j.req.Session = append(j.req.Session[:0], pr.Session...)
			j.req.Predictor = append(j.req.Predictor[:0], pr.Predictor...)
			j.req.BatchNum = pr.BatchNum
			wc.dispatch(j)
		case FrameClose:
			var cl Close
			if err := DecodeClose(payload, &cl); err != nil {
				wc.nack(j, err)
				continue
			}
			j.req.Session = append(j.req.Session[:0], cl.Session...)
			wc.dispatch(j)
		case FramePing:
			j.out = AppendPong(j.out[:0], seq)
			wc.send(j)
		}
	}
}

// dispatch hands a decoded job to its session's executor.
func (wc *wireConn) dispatch(j *job) {
	select {
	case wc.execq[wc.shard(j.req.Session)] <- j:
	case <-wc.quit:
	}
}

// send queues an encoded response for the writer.
func (wc *wireConn) send(j *job) {
	select {
	case wc.writeq <- j:
	case <-wc.quit:
	}
}

// nack answers a frame that failed payload validation.
func (wc *wireConn) nack(j *job, err error) {
	j.out = AppendNack(j.out[:0], j.seq, serve.CodeBadRequest, err.Error(), false, 0)
	wc.send(j)
}

// executor runs one shard's jobs in FIFO order through the Handler. A
// job dequeued after the connection died is dropped unexecuted: nobody
// is left to answer, and a batch never applied is always safe for the
// client to resend.
func (wc *wireConn) executor(q chan *job) {
	for j := range q {
		select {
		case <-wc.quit:
			continue
		default:
		}
		switch j.typ {
		case FramePredict:
			n := len(j.req.Branches)
			if cap(j.preds) < n {
				j.preds = make([]core.Prediction, n)
			}
			j.out = wc.s.h.Predict(wc.ctx, j.out[:0], j.seq, &j.req, j.preds[:n])
			if frameType(j.out) == FramePredictOK {
				wc.s.m.FrameLatency.ObserveDuration(time.Since(j.start))
			}
		case FrameClose:
			j.out = wc.s.h.Close(wc.ctx, j.out[:0], j.seq, string(j.req.Session))
		}
		wc.send(j)
	}
}

// frameType reads the type byte of an encoded frame, just past its
// length prefix.
func frameType(frame []byte) byte { return frame[4] }

// writer serializes encoded frames onto the connection, flushing when
// the queue momentarily empties (response coalescing under pipelining),
// and recycles jobs back to the free list.
func (wc *wireConn) writer() {
	bw := bufio.NewWriterSize(wc.c, 256<<10)
	dead := false
	for j := range wc.writeq {
		if !dead {
			dead = !wc.write(bw, j.out)
		}
		// Recycle before the flush can reach the client, so a closed-loop
		// client's next frame finds this job free instead of growing a new
		// one. The free list holds every job there is, so this never
		// blocks.
		wc.free <- j
		if !dead && len(wc.writeq) == 0 && bw.Flush() != nil {
			wc.die()
			dead = true
		}
	}
}

// write buffers one response frame, reporting false when the connection
// is dead.
func (wc *wireConn) write(bw *bufio.Writer, frame []byte) bool {
	// The write fault site models the response path dying after
	// execution: the lost-ack case the sequencing contract (duplicate
	// detection on resend) exists to absorb.
	if wc.s.faults.Fire(FaultWrite) != nil {
		wc.die()
		return false
	}
	if _, err := bw.Write(frame); err != nil {
		wc.die()
		return false
	}
	wc.s.m.FramesTx.Inc()
	wc.s.m.BytesTx.Add(uint64(len(frame)))
	if frameType(frame) == FrameNack {
		wc.s.m.Nacks.Inc()
	}
	return true
}

// backendHandler executes frames against llbpd's serve.Server: a batch
// through Predict, the admission path the HTTP mux shares, and a close
// through CloseSession.
type backendHandler struct {
	s *serve.Server
	// retryAfter is the resend hint on draining and overloaded NACKs.
	retryAfter time.Duration
}

func (h backendHandler) Predict(ctx context.Context, dst []byte, seq uint64, p *Predict, preds []core.Prediction) []byte {
	// The binary protocol has no fingerprint field; wire sessions never
	// opt into frozen-state sharing.
	resp, aerr := h.s.Predict(ctx, serve.Batch{
		Session:   string(p.Session),
		Predictor: string(p.Predictor),
		Num:       p.BatchNum,
		Branches:  p.Branches,
	}, preds)
	if aerr != nil {
		var retryable bool
		var after time.Duration
		switch aerr.Code {
		case serve.CodeDraining, serve.CodeOverloaded:
			retryable, after = true, h.retryAfter
		case serve.CodeOutOfOrder:
			retryable = true
		}
		return AppendNack(dst, seq, aerr.Code, aerr.Message, retryable, uint64(after.Milliseconds()))
	}
	var flags byte
	branches := p.Branches
	switch {
	case resp.Duplicate:
		// Nothing re-executed: the reply carries current statistics and
		// no per-branch outcomes.
		flags, branches = FlagDuplicate, nil
	case resp.Restored:
		flags = FlagCreated | FlagRestored
	case resp.Created:
		flags = FlagCreated
	}
	return AppendPredictOK(dst, seq, flags, resp.Predictor, branches, preds, statsOf(resp.Stats))
}

func (h backendHandler) Close(_ context.Context, dst []byte, seq uint64, session string) []byte {
	fin, ok := h.s.CloseSession(session)
	if !ok {
		return AppendNack(dst, seq, serve.CodeSessionNotFound, "no such session", false, 0)
	}
	return AppendCloseOK(dst, seq, fin.Predictor, statsOf(fin.Stats))
}

// statsOf converts a serve snapshot to the wire's counter block.
func statsOf(s serve.SessionStats) WireStats {
	return WireStats{
		Instructions:  s.Instructions,
		CondBranches:  s.CondBranches,
		Mispredicts:   s.Mispredicts,
		UncondCount:   s.UncondCount,
		SecondLevelOK: s.SecondLevelOK,
		Batches:       s.Batches,
	}
}
