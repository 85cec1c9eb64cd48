package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"banditware/internal/serve"
)

// defaultSyncInterval paces the delta push loop when the caller does
// not say. Each round ships only the traffic since the last committed
// sync, so a short interval costs little on a quiet replica (an empty
// capture is not even sent).
const defaultSyncInterval = time.Second

// ReplicaOptions configure a fleet member.
type ReplicaOptions struct {
	// Self is this replica's advertised base URL (a label in status
	// reports; the replica never dials itself).
	Self string
	// Peers are the other fleet members' base URLs. Deltas are pushed to
	// every peer (full mesh) — fleets are small, and a full mesh means
	// one sync round propagates everything everywhere.
	Peers []string
	// SyncInterval paces the background push loop started by Start
	// (0 = default; loops are optional — SyncOnce drives a manual sync).
	SyncInterval time.Duration
}

// peerClient performs the delta POSTs and bootstrap GETs.
var peerClient = &http.Client{Timeout: 10 * time.Second}

// Replica wraps a serve.Service with the fleet-facing endpoints and
// the delta push loop:
//
//	POST /v1/dist/delta      apply a peer's delta envelope
//	GET  /v1/dist/snapshot   full snapshot (peer bootstrap)
//	GET  /v1/dist/status     sync counters + peer list
//	(anything else)          the plain serving API (serve.NewHandler)
//
// Each peer has its own serve.SyncState, so a peer that was down
// simply receives a larger delta when it returns; a delta POST that
// fails is not committed and is re-extracted next round.
type Replica struct {
	svc     *serve.Service
	opts    ReplicaOptions
	handler http.Handler

	mu    sync.Mutex
	bases map[string]*serve.SyncState
	stats ReplicaSyncStats
	stop  chan struct{}
	done  chan struct{}
}

// ReplicaSyncStats count the replica's outbound sync activity.
type ReplicaSyncStats struct {
	// Syncs counts successful per-peer delta deliveries (empty captures
	// included — they commit without a POST). Failures counts deliveries
	// that failed and were left uncommitted for retry.
	Syncs    uint64    `json:"syncs"`
	Failures uint64    `json:"failures"`
	LastSync time.Time `json:"last_sync"`
	// LastError is the latest failed delivery's error: the peer, and
	// for a refused delta the peer's status and message. LastErrorAt is
	// when it failed. Both are absent until a delivery fails and are
	// kept through later successes.
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitzero"`
}

// NewReplica wraps svc as a fleet member. Start launches the push
// loop; the replica is also usable push-loop-less via SyncOnce.
func NewReplica(svc *serve.Service, opts ReplicaOptions) *Replica {
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	r := &Replica{
		svc:   svc,
		opts:  opts,
		bases: make(map[string]*serve.SyncState, len(opts.Peers)),
	}
	for _, p := range opts.Peers {
		r.bases[p] = svc.NewSyncState()
	}
	r.handler = r.buildHandler()
	return r
}

// Service returns the wrapped service (tests and in-process fleets
// reach through for direct assertions).
func (r *Replica) Service() *serve.Service { return r.svc }

// Handler returns the replica's full HTTP surface: the dist endpoints
// plus the plain serving API for everything else.
func (r *Replica) Handler() http.Handler { return r.handler }

func (r *Replica) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/delta", func(w http.ResponseWriter, req *http.Request) {
		stats, err := r.svc.ApplyDelta(http.MaxBytesReader(w, req.Body, 64<<20))
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, serve.ErrNotMergeable) {
				code = http.StatusConflict
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("GET /v1/dist/snapshot", func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		if err := r.svc.Save(&buf); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /v1/dist/status", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Status())
	})
	mux.Handle("/", serve.NewHandler(r.svc))
	return mux
}

// ReplicaStatus is the GET /v1/dist/status body.
type ReplicaStatus struct {
	Self  string           `json:"self,omitempty"`
	Peers []string         `json:"peers"`
	Ready bool             `json:"ready"`
	Sync  ReplicaSyncStats `json:"sync"`
}

// Status reports the replica's fleet state.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	stats := r.stats
	r.mu.Unlock()
	return ReplicaStatus{
		Self:  r.opts.Self,
		Peers: append([]string(nil), r.opts.Peers...),
		Ready: r.svc.Ready(),
		Sync:  stats,
	}
}

// SyncOnce pushes this replica's outstanding deltas to every peer.
// Per-peer failures are joined into the returned error; failed peers
// keep their baseline and receive the same (plus newer) changes next
// time.
func (r *Replica) SyncOnce() error {
	var errs []error
	for _, peer := range r.opts.Peers {
		err := r.syncPeer(peer)
		if err != nil {
			err = fmt.Errorf("peer %s: %w", peer, err)
			errs = append(errs, err)
		}
		r.countSync(err)
	}
	return errors.Join(errs...)
}

func (r *Replica) syncPeer(peer string) error {
	r.mu.Lock()
	base := r.bases[peer]
	r.mu.Unlock()
	cap, err := r.svc.CaptureDelta(base)
	if err != nil {
		return err
	}
	if cap.Empty() {
		cap.Commit() // advance over counter-only noise-free baselines
		return nil
	}
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		return err
	}
	resp, err := peerClient.Post(peer+"/v1/dist/delta", "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("delta rejected: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	cap.Commit()
	return nil
}

func (r *Replica) countSync(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.stats.Failures++
		r.stats.LastError, r.stats.LastErrorAt = err.Error(), time.Now()
		return
	}
	r.stats.Syncs++
	r.stats.LastSync = time.Now()
}

// Bootstrap fetches a full snapshot from the first reachable peer and
// imports it, replacing this replica's state — the join/rejoin path.
// The imported state is marked foreign (serve.ImportSnapshot), so the
// next sync round ships nothing the donor fleet already has.
func (r *Replica) Bootstrap() error {
	var errs []error
	for _, peer := range r.opts.Peers {
		resp, err := peerClient.Get(peer + "/v1/dist/snapshot")
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			errs = append(errs, fmt.Errorf("peer %s: %s", peer, resp.Status))
			continue
		}
		err = r.svc.ImportSnapshot(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("importing snapshot from %s: %w", peer, err)
		}
		return nil
	}
	return fmt.Errorf("dist: bootstrap found no usable peer: %w", errors.Join(errs...))
}

// Start launches the background push loop (idempotent). Stop ends it.
func (r *Replica) Start() {
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(r.opts.SyncInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.SyncOnce() // per-peer failures are counted, kept in Status and retried
			}
		}
	}()
}

// Stop ends the push loop and waits for it to exit.
func (r *Replica) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop = nil
	r.done = nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
