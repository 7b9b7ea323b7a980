package serve

import (
	"errors"
	"fmt"
)

// The llbpd HTTP API's versioned error envelope: every non-2xx response
// body is {"error":{"code":"...","message":"..."}}. Codes are the stable,
// machine-readable half of the contract — messages may change freely,
// codes may not. The client decodes the envelope into an *APIError whose
// Unwrap returns the matching sentinel, so callers dispatch with
// errors.Is(err, serve.ErrSessionNotFound) instead of matching status
// codes or message text.

// Error codes carried in the envelope.
const (
	// CodeBadRequest: malformed body, empty batch, or invalid branch record.
	CodeBadRequest = "bad_request"
	// CodeUnknownPredictor: the named predictor is not in the registry.
	CodeUnknownPredictor = "unknown_predictor"
	// CodeSessionNotFound: the session ID does not exist.
	CodeSessionNotFound = "session_not_found"
	// CodePredictorConflict: the session exists under a different predictor.
	CodePredictorConflict = "predictor_conflict"
	// CodeBatchTooLarge: the batch exceeds the server's MaxBatch.
	CodeBatchTooLarge = "batch_too_large"
	// CodeDraining: the server is shutting down and refuses new batches.
	CodeDraining = "draining"
	// CodeOverloaded: the batch could not acquire a worker slot within
	// AdmitTimeout and was shed (HTTP 429 with a Retry-After header).
	// Shedding happens before any predictor state is touched, so a shed
	// batch is always safe to retry.
	CodeOverloaded = "overloaded"
	// CodeInternal: the server hit an unexpected internal failure.
	CodeInternal = "internal"
	// CodeSnapshotCorrupt: an admin-imported checkpoint failed the
	// snapshot layer's integrity checks (bad magic, truncation, checksum
	// mismatch, version skew). The import installed nothing; the caller
	// should re-export and resend.
	CodeSnapshotCorrupt = "snapshot_corrupt"
	// CodeStaleEpoch: a replica ship, import, or promotion carried a fence
	// epoch below the session's — the sender's line of history was fenced
	// off by a failover and must stop (HTTP 409). Nothing was installed.
	CodeStaleEpoch = "stale_epoch"
	// CodeOutOfOrder: a sequenced batch skips ahead of the session's
	// applied cursor (HTTP 409); nothing executed. Resending the gap in
	// order resolves it. Only the binary protocol sequences batches.
	CodeOutOfOrder = "out_of_order"
)

// Sentinel errors, one per code; *APIError unwraps to these.
var (
	ErrBadRequest        = errors.New("bad request")
	ErrUnknownPredictor  = errors.New("unknown predictor")
	ErrSessionNotFound   = errors.New("session not found")
	ErrPredictorConflict = errors.New("predictor conflict")
	ErrBatchTooLarge     = errors.New("batch too large")
	ErrDraining          = errors.New("server is draining")
	ErrOverloaded        = errors.New("server overloaded, batch shed")
	ErrInternal          = errors.New("internal server error")
	ErrSnapshotCorrupt   = errors.New("snapshot corrupt")
	ErrStaleEpoch        = errors.New("stale replica epoch")
)

// codeSentinels maps envelope codes to their errors.Is sentinels.
var codeSentinels = map[string]error{
	CodeBadRequest:        ErrBadRequest,
	CodeUnknownPredictor:  ErrUnknownPredictor,
	CodeSessionNotFound:   ErrSessionNotFound,
	CodePredictorConflict: ErrPredictorConflict,
	CodeBatchTooLarge:     ErrBatchTooLarge,
	CodeDraining:          ErrDraining,
	CodeOverloaded:        ErrOverloaded,
	CodeInternal:          ErrInternal,
	CodeSnapshotCorrupt:   ErrSnapshotCorrupt,
	CodeStaleEpoch:        ErrStaleEpoch,
}

// APIError is a decoded llbpd error envelope. It satisfies errors.As, and
// its Unwrap returns the sentinel for its code (nil for codes this client
// build does not know, which still yields a usable error value).
type APIError struct {
	// Code is the stable machine-readable error code.
	Code string
	// Message is the human-readable detail (unstable across versions).
	Message string
	// Status is the HTTP status the envelope arrived with.
	Status int
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.Status)
}

// Unwrap returns the sentinel error for the code.
func (e *APIError) Unwrap() error { return codeSentinels[e.Code] }

// refuse builds the *APIError a refused request is answered with.
func refuse(status int, code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}

// errorBody is the inner object of the wire envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error errorBody `json:"error"`
}
