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
	"strings"
	"syscall"
	"time"

	"banditware/internal/dist"
	"banditware/internal/serve"
)

// cmdRouter runs the fleet front door: a consistent-hash router that
// partitions streams across replica back ends (each a `banditware
// serve -peers ...` process), health-checks the membership via
// /v1/readyz polling, and rebalances a lost replica's streams onto the
// survivors. Clients speak the ordinary /v1 serving API to the router;
// GET /v1/router/replicas reports the fleet view.
func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address (host:port; default uses -port)")
	port := fs.Int("port", 8090, "listen port (ignored when -addr is set)")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080 (required)")
	poll := fs.Duration("poll", 0, "replica readiness poll interval (0 = 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitURLList(*replicas)
	if len(urls) == 0 {
		return fmt.Errorf("router: -replicas is required")
	}

	router, err := dist.NewRouter(urls, dist.RouterOptions{PollInterval: *poll})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}

	listenAddr := *addr
	if listenAddr == "" {
		listenAddr = fmt.Sprintf(":%d", *port)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	server := serve.NewServer(router.Handler())
	ready := router.Start()
	defer router.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	fmt.Printf("banditware router: listening on %s, %d/%d replicas ready\n",
		ln.Addr(), len(ready), len(urls))

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return server.Shutdown(shutdownCtx)
	}
}

// splitURLList splits a comma-separated URL list, trimming whitespace
// and dropping empty entries.
func splitURLList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
