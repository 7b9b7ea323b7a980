package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"llbpx/internal/core"
)

// The predict path's JSON codec. A served batch crosses JSON four times:
// the client encodes the request, the server (llbpd or the llbpgw HTTP
// frontend) decodes it and encodes the reply, and the client decodes the
// reply. Reflection-based encoding/json spent more CPU on those four
// conversions than llbp-x spends predicting the batch, so they are hand
// written here, appending and scanning []core.Branch and the prediction
// vector directly into reused buffers. The contract is "same bytes, same
// verdicts":
//
//   - The encoders emit exactly the bytes encoding/json emits for the
//     same PredictRequest / PredictResponse (omitempty, HTML-escaped
//     strings, the Encoder's trailing newline). Strings that need
//     escaping are handed to encoding/json itself.
//   - The decoders are fast scanners for the shape a JSON encoder emits:
//     known lower-case keys, each at most once, plain ASCII strings,
//     unsigned integer literals, true/false. Anything else — a
//     case-variant or duplicate key, null, an escape, an exotic number,
//     a syntax error — makes the scanner give up, and the same bytes are
//     decoded by json.Decoder, so a decoded value and an error (status,
//     code and message) are always what encoding/json would have given.
//
// FuzzPredictJSON checks the decoders against json.Decoder, and
// TestPredictJSONBytesIdentical checks the encoders against
// encoding/json.

// maxBodyBytes bounds a predict request body; 64 bytes/branch of JSON is
// generous, and MaxBatch bounds the decoded batch anyway.
const maxBodyBytes = 64 << 20

// Buffers larger than these are dropped instead of pooled, so one huge
// batch does not pin its buffers for the life of the process.
const (
	maxPooledBytes    = 1 << 20
	maxPooledBranches = 16 << 10
)

// PredictCall is one predict request being served: the decoded,
// validated batch plus the pooled buffers its reply is built in. Get one
// from ReadPredict and return it with Release once the reply is written.
type PredictCall struct {
	Predictor           string
	WorkloadFingerprint string
	// Branches is the batch, in retire order.
	Branches []core.Branch

	raw   []core.Prediction // the predictor's output, converted into preds
	preds []BranchPrediction
	buf   []byte // the request body, then the encoded reply
}

var callPool = sync.Pool{New: func() any { return new(PredictCall) }}

// ReadPredict reads and validates the body of a predict request, the
// sequence llbpd and the llbpgw HTTP frontend share: decode, reject an
// empty batch, enforce maxBatch, check every branch kind. A rejected
// request comes back as the *APIError to answer it with.
func ReadPredict(w http.ResponseWriter, r *http.Request, maxBatch int) (*PredictCall, *APIError) {
	c := callPool.Get().(*PredictCall)
	if n := r.ContentLength; n > 0 && n < maxPooledBytes && int(n) >= cap(c.buf) {
		c.buf = make([]byte, 0, n+1)
	}
	var err error
	c.buf, err = readAll(c.buf[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// Hand the decoder the bytes that arrived followed by the read
		// error, exactly as it would have streamed them.
		err = c.decodeJSON(io.MultiReader(bytes.NewReader(c.buf), errReader{err}))
	} else {
		err = c.decode(c.buf)
	}
	if aerr := c.validate(err, maxBatch); aerr != nil {
		c.Release()
		return nil, aerr
	}
	return c, nil
}

func (c *PredictCall) validate(err error, maxBatch int) *APIError {
	switch {
	case err != nil:
		return refuse(http.StatusBadRequest, CodeBadRequest, "bad batch body: %v", err)
	case len(c.Branches) == 0:
		return refuse(http.StatusBadRequest, CodeBadRequest, "empty batch")
	case len(c.Branches) > maxBatch:
		return refuse(http.StatusRequestEntityTooLarge, CodeBatchTooLarge,
			"batch of %d branches exceeds limit %d", len(c.Branches), maxBatch)
	}
	for i, b := range c.Branches {
		if !b.Kind.Valid() {
			return refuse(http.StatusBadRequest, CodeBadRequest, "branch %d: invalid kind %d", i, uint8(b.Kind))
		}
	}
	return nil
}

// Predictions returns a scratch prediction vector the length of the
// batch, owned by the call, for the reply.
func (c *PredictCall) Predictions() []BranchPrediction {
	if cap(c.preds) < len(c.Branches) {
		c.preds = make([]BranchPrediction, len(c.Branches))
	}
	return c.preds[:len(c.Branches)]
}

// rawPredictions returns a scratch vector the length of the batch for
// Predict to write the predictor's output into.
func (c *PredictCall) rawPredictions() []core.Prediction {
	if cap(c.raw) < len(c.Branches) {
		c.raw = make([]core.Prediction, len(c.Branches))
	}
	return c.raw[:len(c.Branches)]
}

// WriteResponse answers the call with resp as a 200, byte for byte what
// json.NewEncoder(w).Encode(resp) would write.
func (c *PredictCall) WriteResponse(w http.ResponseWriter, resp *PredictResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var err error
	if c.buf, err = AppendPredictResponse(c.buf[:0], resp); err == nil {
		_, _ = w.Write(c.buf)
	}
}

// Release returns the call's buffers to the pool; c must not be used
// afterwards.
func (c *PredictCall) Release() {
	if cap(c.buf) > maxPooledBytes {
		c.buf = nil
	}
	if cap(c.Branches) > maxPooledBranches {
		c.Branches = nil
	}
	if cap(c.preds) > maxPooledBranches {
		c.raw, c.preds = nil, nil
	}
	callPool.Put(c)
}

// decode decodes a complete request body into c.
func (c *PredictCall) decode(body []byte) error {
	if c.scan(body) {
		return nil
	}
	return c.decodeJSON(bytes.NewReader(body))
}

// decodeJSON is the encoding/json path. It decodes into PredictRequest,
// whose Go type names appear in the error text clients are sent.
func (c *PredictCall) decodeJSON(r io.Reader) error {
	var req PredictRequest
	err := json.NewDecoder(r).Decode(&req)
	c.Predictor, c.WorkloadFingerprint = req.Predictor, req.WorkloadFingerprint
	c.Branches = c.Branches[:0]
	for _, rec := range req.Branches {
		c.Branches = append(c.Branches, rec.ToBranch())
	}
	return err
}

// scan is the fast request decoder; false means "not the shape it
// handles", never "invalid".
func (c *PredictCall) scan(body []byte) bool {
	s := jsonScan{b: body}
	pred, fp := c.Predictor, c.WorkloadFingerprint
	c.Predictor, c.WorkloadFingerprint, c.Branches = "", "", c.Branches[:0]
	return s.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "predictor":
			bit = 1
			c.Predictor, ok = s.str(pred)
		case "workload_fingerprint":
			bit = 2
			c.WorkloadFingerprint, ok = s.str(fp)
		case "branches":
			bit = 4
			ok = s.branches(c)
		}
		return bit, ok
	})
}

func (s *jsonScan) branches(c *PredictCall) bool {
	return s.array(func() bool {
		var b core.Branch
		ok := s.branch(&b)
		c.Branches = append(c.Branches, b)
		return ok
	})
}

func (s *jsonScan) branch(b *core.Branch) bool {
	if s.canonicalBranch(b) {
		return true
	}
	return s.object(func(key []byte) (bit uint16, ok bool) {
		var v uint64
		switch string(key) {
		case "pc":
			bit = 1
			b.PC, ok = s.uint(math.MaxUint64)
		case "target":
			bit = 2
			b.Target, ok = s.uint(math.MaxUint64)
		case "kind":
			bit = 4
			v, ok = s.uint(math.MaxUint8)
			b.Kind = core.BranchKind(v)
		case "taken":
			bit = 8
			b.Taken, ok = s.bool()
		case "gap":
			bit = 16
			v, ok = s.uint(math.MaxUint32)
			b.InstrGap = uint32(v)
		}
		return bit, ok
	})
}

// canonicalBranch consumes a record laid out exactly as
// AppendPredictRequest (and encoding/json) writes it, the common case,
// without key dispatch. On any other layout it consumes nothing.
func (s *jsonScan) canonicalBranch(b *core.Branch) bool {
	start := s.i
	var kind, gap uint64
	ok := s.prefix(`{"pc":`)
	ok = ok && s.digits(&b.PC, math.MaxUint64)
	if ok && s.prefix(`,"target":`) {
		ok = s.digits(&b.Target, math.MaxUint64)
	}
	ok = ok && s.prefix(`,"kind":`) && s.digits(&kind, math.MaxUint8)
	ok = ok && s.prefix(`,"taken":`) && s.flag(&b.Taken)
	if ok && s.prefix(`,"gap":`) {
		ok = s.digits(&gap, math.MaxUint32)
	}
	if ok && s.prefix("}") {
		b.Kind, b.InstrGap = core.BranchKind(kind), uint32(gap)
		return true
	}
	s.i, *b = start, core.Branch{}
	return false
}

// AppendPredictRequest appends the JSON body of a predict request —
// json.Marshal of the PredictRequest carrying batch — to dst.
func AppendPredictRequest(dst []byte, predictor, fingerprint string, batch []core.Branch) []byte {
	dst = append(dst, '{')
	if predictor != "" {
		dst = append(dst, `"predictor":`...)
		dst = appendString(dst, predictor)
		dst = append(dst, ',')
	}
	if fingerprint != "" {
		dst = append(dst, `"workload_fingerprint":`...)
		dst = appendString(dst, fingerprint)
		dst = append(dst, ',')
	}
	dst = append(dst, `"branches":[`...)
	for i := range batch {
		b := &batch[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"pc":`...)
		dst = strconv.AppendUint(dst, b.PC, 10)
		if b.Target != 0 {
			dst = append(dst, `,"target":`...)
			dst = strconv.AppendUint(dst, b.Target, 10)
		}
		dst = append(dst, `,"kind":`...)
		dst = strconv.AppendUint(dst, uint64(b.Kind), 10)
		if b.Taken {
			dst = append(dst, `,"taken":true`...)
		} else {
			dst = append(dst, `,"taken":false`...)
		}
		if b.InstrGap != 0 {
			dst = append(dst, `,"gap":`...)
			dst = strconv.AppendUint(dst, uint64(b.InstrGap), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// predictionJSON is encoding/json's encoding of each of the sixteen
// BranchPrediction values, indexed by predictionIndex.
var predictionJSON = func() (t [16][]byte) {
	for i := range t {
		t[i], _ = json.Marshal(predictionAt(i))
	}
	return t
}()

// predictionAt is the inverse of predictionIndex.
func predictionAt(i int) BranchPrediction {
	return BranchPrediction{Cond: i&1 != 0, Taken: i&2 != 0, Correct: i&4 != 0, SecondLevel: i&8 != 0}
}

func predictionIndex(p BranchPrediction) int {
	i := 0
	if p.Cond {
		i |= 1
	}
	if p.Taken {
		i |= 2
	}
	if p.Correct {
		i |= 4
	}
	if p.SecondLevel {
		i |= 8
	}
	return i
}

// AppendPredictResponse appends what json.NewEncoder(w).Encode(r) writes
// for r, trailing newline included. Like the Encoder it fails, having
// produced nothing useful, only for a non-finite MPKI or accuracy.
func AppendPredictResponse(dst []byte, r *PredictResponse) ([]byte, error) {
	dst = append(dst, `{"session":`...)
	dst = appendString(dst, r.Session)
	dst = append(dst, `,"predictor":`...)
	dst = appendString(dst, r.Predictor)
	if r.Created {
		dst = append(dst, `,"created":true`...)
	}
	if r.Restored {
		dst = append(dst, `,"restored":true`...)
	}
	if r.Duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	if r.Predictions == nil {
		dst = append(dst, `,"predictions":null`...)
	} else {
		dst = append(dst, `,"predictions":[`...)
		for i, p := range r.Predictions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, predictionJSON[predictionIndex(p)]...)
		}
		dst = append(dst, ']')
	}
	st := &r.Stats
	dst = append(dst, `,"stats":{"instructions":`...)
	dst = strconv.AppendUint(dst, st.Instructions, 10)
	dst = append(dst, `,"cond_branches":`...)
	dst = strconv.AppendUint(dst, st.CondBranches, 10)
	dst = append(dst, `,"mispredicts":`...)
	dst = strconv.AppendUint(dst, st.Mispredicts, 10)
	dst = append(dst, `,"uncond_branches":`...)
	dst = strconv.AppendUint(dst, st.UncondCount, 10)
	dst = append(dst, `,"second_level_ok":`...)
	dst = strconv.AppendUint(dst, st.SecondLevelOK, 10)
	dst = append(dst, `,"batches":`...)
	dst = strconv.AppendUint(dst, st.Batches, 10)
	dst = append(dst, `,"mpki":`...)
	dst, err := appendFloat(dst, st.MPKI)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"accuracy":`...)
	if dst, err = appendFloat(dst, st.Accuracy); err != nil {
		return dst, err
	}
	if st.WireCursor != 0 {
		dst = append(dst, `,"wire_cursor":`...)
		dst = strconv.AppendUint(dst, st.WireCursor, 10)
	}
	return append(dst, "}}\n"...), nil
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied; anything else is left to encoding/json, whose HTML
// escaping and invalid-UTF-8 handling are then reproduced by
// construction.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f formatted as encoding/json formats a float64:
// ES6 number-to-string, 'e' notation outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// bodyPool holds the client's reply read buffers.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readPredictResponse reads a 2xx predict reply from r and decodes it
// into out, as json.NewDecoder(r).Decode(out) would into a zero out.
// out's string and prediction buffers are reused.
func readPredictResponse(r io.Reader, out *PredictResponse) error {
	bp := bodyPool.Get().(*[]byte)
	body, err := readAll((*bp)[:0], r)
	if err != nil {
		err = decodePredictResponseJSON(io.MultiReader(bytes.NewReader(body), errReader{err}), out)
	} else {
		err = decodePredictResponse(body, out)
	}
	if cap(body) <= maxPooledBytes {
		*bp = body
		bodyPool.Put(bp)
	}
	return err
}

// decodePredictResponse decodes a complete reply body into out.
func decodePredictResponse(body []byte, out *PredictResponse) error {
	if scanPredictResponse(body, out) {
		return nil
	}
	return decodePredictResponseJSON(bytes.NewReader(body), out)
}

func decodePredictResponseJSON(r io.Reader, out *PredictResponse) error {
	var fresh PredictResponse
	err := json.NewDecoder(r).Decode(&fresh)
	*out = fresh
	return err
}

// scanPredictResponse is the fast reply decoder; false means "not the
// shape it handles", never "invalid".
func scanPredictResponse(body []byte, out *PredictResponse) bool {
	s := jsonScan{b: body}
	sess, pred, preds := out.Session, out.Predictor, out.Predictions[:0]
	if preds == nil {
		preds = []BranchPrediction{}
	}
	*out = PredictResponse{}
	return s.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "session":
			bit = 1
			out.Session, ok = s.str(sess)
		case "predictor":
			bit = 2
			out.Predictor, ok = s.str(pred)
		case "created":
			bit = 4
			out.Created, ok = s.bool()
		case "restored":
			bit = 8
			out.Restored, ok = s.bool()
		case "duplicate":
			bit = 16
			out.Duplicate, ok = s.bool()
		case "predictions":
			bit = 32
			out.Predictions = preds
			ok = s.array(func() bool {
				var p BranchPrediction
				ok := s.prediction(&p)
				out.Predictions = append(out.Predictions, p)
				return ok
			})
		case "stats":
			bit = 64
			ok = s.stats(&out.Stats)
		}
		return bit, ok
	})
}

func (s *jsonScan) prediction(p *BranchPrediction) bool {
	if s.canonicalPrediction(p) {
		return true
	}
	return s.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "cond":
			bit = 1
			p.Cond, ok = s.bool()
		case "taken":
			bit = 2
			p.Taken, ok = s.bool()
		case "correct":
			bit = 4
			p.Correct, ok = s.bool()
		case "second_level":
			bit = 8
			p.SecondLevel, ok = s.bool()
		}
		return bit, ok
	})
}

// canonicalPrediction consumes one of the encodings in predictionJSON,
// the common case. Reading the three booleans where that layout puts
// them picks the one entry that can match; a single comparison then
// accepts or rejects it. On any other layout it consumes nothing.
func (s *jsonScan) canonicalPrediction(p *BranchPrediction) bool {
	rest, i, off := s.b[s.i:], 0, len(`{"cond":`)
	for bit, skip := range []int{len(`,"taken":`), len(`,"correct":`), 0} {
		if off < len(rest) && rest[off] == 't' {
			i |= 1 << bit
			off-- // "true" is one byte shorter than "false"
		}
		off += len("false") + skip
	}
	if off < len(rest) && rest[off] == ',' {
		i |= 8
	}
	if enc := predictionJSON[i]; bytes.HasPrefix(rest, enc) {
		s.i += len(enc)
		*p = predictionAt(i)
		return true
	}
	return false
}

func (s *jsonScan) stats(st *SessionStats) bool {
	return s.object(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "instructions":
			bit = 1
			st.Instructions, ok = s.uint(math.MaxUint64)
		case "cond_branches":
			bit = 2
			st.CondBranches, ok = s.uint(math.MaxUint64)
		case "mispredicts":
			bit = 4
			st.Mispredicts, ok = s.uint(math.MaxUint64)
		case "uncond_branches":
			bit = 8
			st.UncondCount, ok = s.uint(math.MaxUint64)
		case "second_level_ok":
			bit = 16
			st.SecondLevelOK, ok = s.uint(math.MaxUint64)
		case "batches":
			bit = 32
			st.Batches, ok = s.uint(math.MaxUint64)
		case "mpki":
			bit = 64
			st.MPKI, ok = s.float()
		case "accuracy":
			bit = 128
			st.Accuracy, ok = s.float()
		case "wire_cursor":
			bit = 256
			st.WireCursor, ok = s.uint(math.MaxUint64)
		}
		return bit, ok
	})
}

// jsonScan is a cursor over one JSON body for the fast decoders. Each
// method consumes one token (after any whitespace) and reports false on
// anything outside the narrow shape it accepts, leaving the caller to
// give the body to encoding/json.
type jsonScan struct {
	b []byte
	i int
}

func (s *jsonScan) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// object consumes a JSON object, handing each key to field, which
// consumes the value and returns a bit of its own for the key; an
// unknown key, a bad value or a repeated bit fails the scan. The scan
// ends at the closing brace: json.Decoder stops at the end of the first
// value too, and whatever follows is not its concern.
func (s *jsonScan) object(field func(key []byte) (bit uint16, ok bool)) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := s.key()
		if !ok {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// array consumes a JSON array, calling elem to consume each element.
func (s *jsonScan) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.lit(',') {
			return s.lit(']')
		}
	}
}

// lit consumes the structural byte c.
func (s *jsonScan) lit(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// raw consumes a string of printable ASCII without escapes and returns
// its contents, a view into the body.
func (s *jsonScan) raw() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and its colon.
func (s *jsonScan) key() ([]byte, bool) {
	k, ok := s.raw()
	return k, ok && s.lit(':')
}

// str consumes a string value, returning old itself when it already
// holds the same text so a reused decode target does not allocate.
func (s *jsonScan) str(old string) (string, bool) {
	v, ok := s.raw()
	if !ok {
		return "", false
	}
	if string(v) == old {
		return old, true
	}
	return string(v), true
}

func (s *jsonScan) bool() (v, ok bool) {
	s.skipSpace()
	return v, s.flag(&v)
}

// uint consumes an integer literal of at most max: digits without a
// leading zero. A sign, fraction or exponent stops the digits, and the
// caller then finds no ',' or '}' where it expects one.
func (s *jsonScan) uint(max uint64) (uint64, bool) {
	s.skipSpace()
	var v uint64
	ok := s.digits(&v, max)
	return v, ok
}

// digits is uint without the leading whitespace.
func (s *jsonScan) digits(v *uint64, max uint64) bool {
	i, n := s.i, uint64(0)
	for ; i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		d := uint64(s.b[i] - '0')
		if n >= math.MaxUint64/10 && (n > math.MaxUint64/10 || d > math.MaxUint64%10) {
			return false
		}
		n = n*10 + d
	}
	if i == s.i || n > max || (s.b[s.i] == '0' && i > s.i+1) {
		return false
	}
	s.i, *v = i, n
	return true
}

// prefix consumes lit if the body continues with exactly it.
func (s *jsonScan) prefix(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// flag consumes true or false into *v.
func (s *jsonScan) flag(v *bool) bool {
	*v = s.prefix("true")
	return *v || s.prefix("false")
}

// float consumes a JSON number literal and parses it with the call
// encoding/json makes.
func (s *jsonScan) float() (float64, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

// readAll reads r to EOF, appending to dst.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(512, cap(dst)))
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errReader fails every read with err: the tail of a replayed body.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
