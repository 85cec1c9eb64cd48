package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"banditware"
	"banditware/internal/dist"
	"banditware/internal/serve"
)

// cmdServe runs the HTTP/JSON serving layer: a multi-stream Service
// behind the /v1 API (see banditware.ServiceHandler for the routes).
// Streams come from three places: a state snapshot (-state, loaded at
// startup when the file exists), -create files (each holding one
// POST /v1/streams body, read by the same serve.ParseCreateRequest the
// route uses), and the POST /v1/streams endpoint at runtime. With
// -state set, the service snapshots itself to the file on shutdown and
// every -snapshot interval (atomically, via a temp file and rename).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address (host:port; default uses -port)")
	port := fs.Int("port", 8080, "listen port (ignored when -addr is set)")
	state := fs.String("state", "", "service snapshot file: loaded at startup if present, saved on shutdown")
	snapshot := fs.Duration("snapshot", 0, "periodic snapshot interval, e.g. 30s (0 = only on shutdown; needs -state)")
	pending := fs.Int("pending", 0, "default per-stream pending-ticket capacity (0 = 4096)")
	ttl := fs.Duration("ttl", 0, "default pending-ticket expiry (0 = never)")
	peers := fs.String("peers", "", "comma-separated peer replica base URLs — join a scale-out fleet: serve the dist endpoints and push learning deltas to every peer")
	self := fs.String("self", "", "this replica's advertised base URL, reported in /v1/dist/status (needs -peers)")
	syncEvery := fs.Duration("sync", 0, "delta push interval to peers (0 = 1s; needs -peers)")
	bootstrap := fs.Bool("bootstrap", false, "import a full snapshot from the first reachable peer before serving — the join/rejoin path (needs -peers)")
	var creates []string
	fs.Func("create", "create a stream at startup from a JSON file holding one POST /v1/streams body (repeatable)", func(v string) error {
		creates = append(creates, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot > 0 && *state == "" {
		return fmt.Errorf("serve: -snapshot needs -state")
	}
	peerURLs := splitURLList(*peers)
	if len(peerURLs) == 0 {
		if *self != "" || *syncEvery != 0 || *bootstrap {
			return fmt.Errorf("serve: -self, -sync and -bootstrap need -peers")
		}
	}

	opts := banditware.ServiceOptions{MaxPending: *pending, TicketTTL: *ttl}
	svc, err := loadOrNewService(*state, opts)
	if err != nil {
		return err
	}
	for _, path := range creates {
		if err := createFromFile(svc, path); err != nil {
			return fmt.Errorf("serve: -create %s: %w", path, err)
		}
	}

	listenAddr := *addr
	if listenAddr == "" {
		listenAddr = fmt.Sprintf(":%d", *port)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	// Hardened server: read/write/idle timeouts and a header-size cap
	// alongside the header-read timeout, so a slow client (or a load
	// generator gone wrong) can never wedge the serving path. With
	// -peers the service joins a scale-out fleet: the dist endpoints
	// (delta ingest, snapshot, status) mount in front of the plain API
	// and a background loop pushes learning deltas to every peer.
	var server *http.Server
	if len(peerURLs) > 0 {
		rep := dist.NewReplica(svc, dist.ReplicaOptions{
			Self:         *self,
			Peers:        peerURLs,
			SyncInterval: *syncEvery,
		})
		if *bootstrap {
			if err := rep.Bootstrap(); err != nil {
				ln.Close()
				return fmt.Errorf("serve: %w", err)
			}
			fmt.Printf("banditware serve: bootstrapped %d streams from the fleet\n", svc.NumStreams())
		}
		server = serve.NewServer(rep.Handler())
		rep.Start()
		defer rep.Stop()
	} else {
		server = banditware.NewServiceServer(svc)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	if len(peerURLs) > 0 {
		fmt.Printf("banditware serve: listening on %s (%d streams, %d fleet peers)\n",
			ln.Addr(), svc.NumStreams(), len(peerURLs))
	} else {
		fmt.Printf("banditware serve: listening on %s (%d streams)\n", ln.Addr(), svc.NumStreams())
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *snapshot > 0 {
		ticker = time.NewTicker(*snapshot)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-tick:
			if err := saveServiceAtomic(svc, *state); err != nil {
				fmt.Fprintf(os.Stderr, "banditware serve: snapshot: %v\n", err)
			}
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				err = nil
			}
			return err
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := server.Shutdown(shutdownCtx)
			cancel()
			if *state != "" {
				if serr := saveServiceAtomic(svc, *state); serr != nil {
					err = errors.Join(err, serr)
				} else {
					fmt.Printf("banditware serve: state saved to %s\n", *state)
				}
			}
			return err
		}
	}
}

// createFromFile creates the stream described by the create document in
// the file at path.
func createFromFile(svc *banditware.Service, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name, cfg, err := serve.ParseCreateRequest(f)
	if err != nil {
		return err
	}
	return svc.CreateStream(name, cfg)
}

func loadOrNewService(path string, opts banditware.ServiceOptions) (*banditware.Service, error) {
	if path == "" {
		return banditware.NewService(opts), nil
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return banditware.NewService(opts), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	svc, err := banditware.LoadServiceOptions(f, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return svc, nil
}

// saveServiceAtomic snapshots to a temp file in the target directory and
// renames it into place, so a crash mid-write never corrupts the state.
func saveServiceAtomic(svc *banditware.Service, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := svc.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// Flush to stable storage before the rename: rename metadata can hit
	// disk before the data does, which would make a crash leave an empty
	// or truncated state file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
