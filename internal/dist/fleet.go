package dist

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"banditware/internal/serve"
)

// FleetOptions configure a LocalFleet.
type FleetOptions struct {
	// Replicas is the member count (0 = 3).
	Replicas int
	// SyncInterval paces each replica's delta push loop. 0 selects the
	// package default; negative disables the loops entirely (tests then
	// drive replication with SyncAll).
	SyncInterval time.Duration
	// PollInterval paces the router's readiness probes (0 = default).
	PollInterval time.Duration
}

// LocalFleet runs a whole fleet — N replicas and a router — on
// loopback listeners inside one process: the chaos test, the bwload
// fleet target, and the demo all drive scale-out serving through it.
// Kill and Restart simulate replica failure and recovery (a restarted
// replica comes back empty, rebinds its old port, and bootstraps from
// a surviving peer).
type LocalFleet struct {
	opts   FleetOptions
	router *Router

	mu        sync.Mutex
	nodes     []*fleetNode
	routerSrv *http.Server
	routerURL string
}

type fleetNode struct {
	addr  string // pinned host:port, survives Kill/Restart
	url   string
	rep   *Replica
	srv   *http.Server
	alive bool
}

// NewLocalFleet binds n+1 loopback listeners (replicas + router),
// starts every replica's sync loop (unless disabled) and the router's
// health polling, and returns the running fleet. Close shuts
// everything down.
func NewLocalFleet(opts FleetOptions) (*LocalFleet, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	f := &LocalFleet{opts: opts}
	listeners := make([]net.Listener, opts.Replicas+1)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		listeners[i] = ln
	}
	urls := make([]string, opts.Replicas)
	for i := 0; i < opts.Replicas; i++ {
		urls[i] = "http://" + listeners[i].Addr().String()
	}

	for i := 0; i < opts.Replicas; i++ {
		peers := make([]string, 0, opts.Replicas-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		rep := NewReplica(serve.NewService(serve.ServiceOptions{}), ReplicaOptions{
			Self:         urls[i],
			Peers:        peers,
			SyncInterval: opts.SyncInterval,
		})
		node := &fleetNode{
			addr:  listeners[i].Addr().String(),
			url:   urls[i],
			rep:   rep,
			srv:   &http.Server{Handler: rep.Handler()},
			alive: true,
		}
		go node.srv.Serve(listeners[i])
		if opts.SyncInterval >= 0 {
			rep.Start()
		}
		f.nodes = append(f.nodes, node)
	}

	router, err := NewRouter(urls, RouterOptions{PollInterval: opts.PollInterval})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.router = router
	rln := listeners[opts.Replicas]
	f.routerURL = "http://" + rln.Addr().String()
	f.routerSrv = &http.Server{Handler: router.Handler()}
	go f.routerSrv.Serve(rln)
	router.Start()
	router.CheckNow()
	return f, nil
}

// RouterURL is the fleet's single serving endpoint.
func (f *LocalFleet) RouterURL() string { return f.routerURL }

// ReplicaURLs lists every member's base URL (dead ones included).
func (f *LocalFleet) ReplicaURLs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	urls := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		urls[i] = n.url
	}
	return urls
}

// Router exposes the fleet's router (chaos drills force CheckNow
// through it).
func (f *LocalFleet) Router() *Router { return f.router }

// Replica returns member i's Replica (nil while killed).
func (f *LocalFleet) Replica(i int) *Replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.nodes[i].alive {
		return nil
	}
	return f.nodes[i].rep
}

// Kill hard-stops member i: its listener closes mid-traffic and its
// sync loop ends. The router discovers the loss via its readiness
// probes (or a proxy error) and rebalances the member's streams.
func (f *LocalFleet) Kill(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodes[i]
	if !n.alive {
		return fmt.Errorf("dist: replica %d is already down", i)
	}
	n.rep.Stop()
	n.alive = false
	return n.srv.Close()
}

// Restart brings member i back as a fresh process would come back:
// empty state, bootstrap from the first reachable peer, rebind the old
// port, resume syncing. The restarted replica answers its readiness
// probe only after the bootstrap import completed.
func (f *LocalFleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodes[i]
	if n.alive {
		return fmt.Errorf("dist: replica %d is already up", i)
	}
	peers := make([]string, 0, len(f.nodes)-1)
	for j, p := range f.nodes {
		if j != i {
			peers = append(peers, p.url)
		}
	}
	rep := NewReplica(serve.NewService(serve.ServiceOptions{}), ReplicaOptions{
		Self:         n.url,
		Peers:        peers,
		SyncInterval: f.opts.SyncInterval,
	})
	if err := rep.Bootstrap(); err != nil {
		return err
	}
	// The old port may linger in TIME_WAIT for a moment after the hard
	// close; retry briefly rather than failing the restart.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("dist: rebinding %s: %w", n.addr, err)
	}
	n.rep = rep
	n.srv = &http.Server{Handler: rep.Handler()}
	n.alive = true
	go n.srv.Serve(ln)
	if f.opts.SyncInterval >= 0 {
		rep.Start()
	}
	return nil
}

// SyncAll runs one full-mesh sync round synchronously: every live
// replica pushes its outstanding deltas to every peer. One round
// propagates everything everywhere (foreign contributions are never
// re-shipped, so ordering cannot double-count).
func (f *LocalFleet) SyncAll() error {
	f.mu.Lock()
	reps := make([]*Replica, 0, len(f.nodes))
	for _, n := range f.nodes {
		if n.alive {
			reps = append(reps, n.rep)
		}
	}
	f.mu.Unlock()
	var errs []error
	for _, r := range reps {
		if err := r.SyncOnce(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close shuts the whole fleet down.
func (f *LocalFleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.router != nil {
		f.router.Stop()
	}
	var errs []error
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Close())
	}
	for _, n := range f.nodes {
		if n.alive {
			n.rep.Stop()
			n.alive = false
			errs = append(errs, n.srv.Close())
		}
	}
	return errors.Join(errs...)
}
