package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"llbpx/internal/replica"
)

// Hot-standby replication -----------------------------------------------
//
// Both halves of the replication protocol live here. As a primary, the
// server runs a replica.Shipper: the gateway names each session's
// standby via SetReplicaTarget, every applied batch is accounted by
// noteReplicaBatch, and the shipper asynchronously POSTs framed
// checkpoint blobs to the standby's install endpoint after every N
// batches or on the anti-entropy tick. As a standby, the server keeps
// fully-materialized warm sessions in a side table — deliberately NOT
// in the shard map, so a standby never serves batches, never collides
// with a live session, and promotion is just moving the object across.
//
// Epoch fencing: epochs[id] is the highest fence epoch this server has
// seen for a session, raised by every target assignment, install,
// promotion, and epoch-stamped admin import. Any ship or import below
// the fence is rejected with ErrStaleEpoch before its payload is
// decoded — a falsely-declared-dead primary that comes back keeps
// shipping its pre-failover history and every blob bounces, so the
// promoted line of history cannot be forked or resurrected over.

// FaultReplicate fires before every checkpoint ship (error rules) and
// wraps the shipped bytes (partial-write rules). Shared spelling with
// the cluster tier via internal/replica.
const FaultReplicate = replica.SiteReplicate

// standbyEntry is one warm standby session plus the epoch of the ship
// that installed it.
type standbyEntry struct {
	sess  *Session
	epoch uint64
}

// startReplication builds the replication state and the shipper; called
// from New. The shipper always exists (sessions without targets cost one
// map lookup per batch); stopReplication tears it down in Drain.
func (s *Server) startReplication() {
	s.standbys = make(map[string]*standbyEntry)
	s.epochs = make(map[string]uint64)
	s.shipper = replica.NewShipper(replica.ShipperConfig{
		Every:    s.cfg.ReplicaEvery,
		Interval: s.cfg.ReplicaInterval,
		Faults:   s.cfg.Faults,
		Export:   s.ExportSession,
		OnShip: func(id string, n int) {
			s.metrics.replicaShips.Inc()
			s.metrics.replicaShipBytes.Add(uint64(n))
		},
		OnShipError: func(id string, err error) { s.metrics.replicaShipErrors.Inc() },
	})
}

// stopReplication stops the shipper and releases every standby's
// pattern storage; called from Drain (idempotent).
func (s *Server) stopReplication() {
	s.shipper.Close()
	s.replMu.Lock()
	standbys := s.standbys
	s.standbys = make(map[string]*standbyEntry)
	s.replMu.Unlock()
	for _, ent := range standbys {
		s.releaseSessionStore(ent.sess)
	}
}

// noteReplicaBatch accounts one applied batch with the shipper (both
// transports call it after observeBatch).
func (s *Server) noteReplicaBatch(id string) { s.shipper.NoteBatch(id) }

// StandbySessions reports how many warm standby sessions this server
// holds.
func (s *Server) StandbySessions() int {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return len(s.standbys)
}

// ReplicaLag reports a session's unshipped batch count on the primary
// (false when the session has no replication target). Test surface.
func (s *Server) ReplicaLag(id string) (int, bool) { return s.shipper.Lag(id) }

// SetReplicaTarget points a session's replication at a standby base URL
// under the given fence epoch ("" clears the target). The fence only
// ever rises.
func (s *Server) SetReplicaTarget(id, target string, epoch uint64) {
	s.replMu.Lock()
	if epoch > s.epochs[id] {
		s.epochs[id] = epoch
	}
	s.replMu.Unlock()
	if target == "" {
		s.shipper.Drop(id)
		return
	}
	s.shipper.SetTarget(id, target, epoch)
}

// InstallStandby decodes a shipped replica blob and installs it as the
// session's warm standby. The fence is checked against the blob's epoch
// header before the snapshot payload is decoded (cheap rejection of a
// stale primary's late ship) and re-checked under the lock afterwards
// (a promotion may have raced the decode). A framing- or
// integrity-damaged blob is ErrSnapshotCorrupt and installs nothing.
func (s *Server) InstallStandby(id string, data []byte) error {
	epoch, snap, err := replica.DecodeBlob(data)
	if err != nil {
		return fmt.Errorf("serve: standby install of %q: %v: %w", id, err, ErrSnapshotCorrupt)
	}
	var old *standbyEntry
	if _, err := s.materializeFenced("standby install", id, epoch, snap, func(sess *Session) {
		old = s.standbys[id]
		s.standbys[id] = &standbyEntry{sess: sess, epoch: epoch}
	}); err != nil {
		return err
	}
	if old != nil {
		s.releaseSessionStore(old.sess)
	}
	s.metrics.replicaInstalls.Inc()
	return nil
}

// PromoteStandby moves the session's warm standby into the live shard
// map under a new fence epoch — the gateway's failover step. The epoch
// must be at or above the fence (the gateway bumps it past the dead
// primary's, which permanently fences that primary's late ships).
// Promotion is sub-millisecond: the state was imported when it was
// shipped; all that moves here is a pointer. The returned final carries
// the standby's applied-batch cursor, which the gateway uses to replay
// only the unshipped tail.
func (s *Server) PromoteStandby(id string, epoch uint64) (SessionFinal, error) {
	s.replMu.Lock()
	if err := s.fenceLocked("promote", id, epoch); err != nil {
		s.replMu.Unlock()
		return SessionFinal{}, err
	}
	ent := s.standbys[id]
	if ent == nil {
		s.replMu.Unlock()
		return SessionFinal{}, fmt.Errorf("serve: no standby for session %q: %w", id, ErrSessionNotFound)
	}
	delete(s.standbys, id)
	s.epochs[id] = epoch
	s.replMu.Unlock()
	s.publish(id, ent.sess)
	s.metrics.replicaPromotions.Inc()
	return ent.sess.final(), nil
}

// DropStandby discards a session's warm standby (membership moved it
// elsewhere, or the session closed). Reports whether one existed.
func (s *Server) DropStandby(id string) bool {
	s.replMu.Lock()
	ent := s.standbys[id]
	delete(s.standbys, id)
	s.replMu.Unlock()
	if ent == nil {
		return false
	}
	s.releaseSessionStore(ent.sess)
	return true
}

// dropReplica forgets everything replication knows about a closed
// session except its fence epoch — the fence outlives the session so a
// stale primary cannot resurrect a closed stream.
func (s *Server) dropReplica(id string) {
	s.shipper.Drop(id)
	s.DropStandby(id)
}

// Admin handlers ---------------------------------------------------------

// replicaTargetRequest is POST /admin/v1/sessions/{id}/replica: the
// gateway assigning (or clearing, with an empty URL) a session's
// standby.
type replicaTargetRequest struct {
	StandbyURL string `json:"standby_url"`
	Epoch      uint64 `json:"epoch"`
}

// replicaReply acknowledges a replica-admin mutation.
type replicaReply struct {
	Session string `json:"session"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Dropped bool   `json:"dropped,omitempty"`
}

func (s *Server) handleReplicaTarget(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req replicaTargetRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad replica target body: %v", err)
		return
	}
	s.SetReplicaTarget(id, req.StandbyURL, req.Epoch)
	WriteJSON(w, http.StatusOK, replicaReply{Session: id, Epoch: req.Epoch})
}

// handleStandbyInstall is POST /admin/v1/sessions/{id}/standby: the body
// is a framed replica blob (the shipper's wire format). 409 stale_epoch
// when fenced, 422 snapshot_corrupt when the framing or payload is
// damaged.
func (s *Server) handleStandbyInstall(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "reading replica blob: %v", err)
		return
	}
	if err := s.InstallStandby(id, data); err != nil {
		writeTransferError(w, err, http.StatusBadRequest, CodeBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, replicaReply{Session: id})
}

// promoteRequest is POST /admin/v1/sessions/{id}/promote.
type promoteRequest struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleStandbyPromote(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req promoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad promote body: %v", err)
		return
	}
	fin, err := s.PromoteStandby(id, req.Epoch)
	if err != nil {
		writeTransferError(w, err, http.StatusBadRequest, CodeBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, fin)
}

func (s *Server) handleStandbyDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	WriteJSON(w, http.StatusOK, replicaReply{Session: id, Dropped: s.DropStandby(id)})
}
