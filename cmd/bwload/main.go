// Command bwload is the serving-path load generator and profiling
// harness (distinct from cmd/bwbench, which regenerates the paper's
// offline figures). It synthesises a seeded Zipf-skewed multi-stream
// trace from the internal/workloads generators and replays it against
// one or both serving targets:
//
//   - inproc: a banditware.Service in the same process (engine +
//     registry + ledger cost, no transport), driven through the
//     zero-allocation API (RecommendInto / RecommendCtxInto with pooled
//     tickets and context maps, seq-keyed observes) — the serving-layer
//     capacity ceiling;
//   - http: the HTTP front-end over a real loopback socket, self-hosted
//     with the hardened production server (or an external server via
//     -addr);
//   - fleet: a self-hosted scale-out fleet (-fleet N replicas, default
//     3, behind the consistent-hash router, with background delta
//     replication) — every request takes the client → router → replica
//     path, pricing the extra hop and sync traffic. -chaos adds the
//     kill/restart drill inside the measured run: one replica is
//     hard-killed a third of the way through the trace and restarted
//     (peer bootstrap) at two thirds; failover-window errors are
//     counted, not fatal.
//
// -churn runs the arm-churn drill inside the measured run on any
// target: a warm-started hardware configuration is added to every
// stream a quarter of the way through the trace, drained at half, and
// retired at three quarters, pricing recommendation traffic while the
// arm set grows, reroutes, and shrinks (fleet targets broadcast each
// transition to every replica). BENCH_armset_churn.json at the repo
// root is the pinned-seed churn baseline.
//
// Modes: closed-loop (-mode closed: fixed concurrency, measures
// capacity) and open-loop (-mode open: Poisson arrivals at -qps,
// measures user-visible latency). Results stream into log-bucketed
// histograms and serialize to the stable JSON report schema
// (internal/loadgen.Report); BENCH_serve_baseline.json at the repo
// root is this tool's pinned-seed output.
//
// Profiling: -cpuprofile, -memprofile, and -trace capture pprof/trace
// artifacts of the whole run, wired the same way as the
// SchemaTreeRecommender evaluation harness.
//
// Scenario mode (-scenario serverless) swaps the synthetic trace for
// the internal/scenario serverless-fleet trace: thousands of Zipf-skewed
// function streams with diurnal + flash-crowd arrival patterns and
// end-to-end latencies (service + queueing + cold starts), so scenario
// traffic joins the same perf trajectory and report schema. -quick
// selects the small pinned preset; -n/-streams/-skew/-observe/-app are
// ignored in scenario mode (the scenario pins its own population).
//
// Examples:
//
//	bwload -quick                               # CI smoke: both targets, seconds
//	bwload -target inproc -n 200000 -conc 8     # capacity run
//	bwload -target http -mode open -qps 2000    # latency under offered load
//	bwload -target fleet -quick                 # scale-out fleet through the router
//	bwload -target fleet -chaos -quick          # CI chaos smoke: kill+restart mid-run
//	bwload -churn -quick                        # arm add/drain/retire inside the run
//	bwload -scenario serverless -quick          # serverless-fleet scenario smoke
//	bwload -cpuprofile cpu.out -n 500000        # profile the serving path
//	bwload -validate BENCH_serve_baseline.json  # schema-check a report
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"banditware/internal/loadgen"
	"banditware/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "bwload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwload", flag.ExitOnError)
	target := fs.String("target", "both", "serving target: inproc, http, fleet, or both")
	fleetN := fs.Int("fleet", 3, "replica count for -target fleet")
	chaos := fs.Bool("chaos", false, "with -target fleet: kill a replica a third of the way through the trace and restart it at two thirds (errors in the failover window are counted, not fatal)")
	churn := fs.Bool("churn", false, "run the arm-churn drill inside the measured run: add a warm-started hardware arm to every stream a quarter of the way through the trace, drain it at half, retire it at three quarters")
	addr := fs.String("addr", "", "drive an external HTTP server at this base URL (e.g. http://127.0.0.1:8080) instead of self-hosting; implies -target http")
	mode := fs.String("mode", "closed", "load mode: closed (fixed concurrency) or open (Poisson arrivals at -qps)")
	conc := fs.Int("conc", runtime.GOMAXPROCS(0), "closed-loop workers / open-loop in-flight slots")
	n := fs.Int("n", 50000, "recommend requests in the trace")
	durCap := fs.Duration("duration", 0, "wall-clock cap per run (0 = run the whole trace)")
	streams := fs.Int("streams", 64, "stream population size")
	skew := fs.Float64("skew", 1.1, "Zipf skew of stream popularity (0 < s; ~0 = uniform)")
	observe := fs.Float64("observe", 0.5, "fraction of recommends followed by an observe")
	app := fs.String("app", "cycles", "workload family for contexts and runtimes: cycles, bp3d, matmul, llm, serverless")
	scenarioName := fs.String("scenario", "", "replay a scenario trace instead of a synthetic one: serverless")
	timeScale := fs.Float64("timescale", 0, "compress (>1) or stretch (<1) open-loop arrival times (0 = replay at recorded rate)")
	qps := fs.Float64("qps", 2000, "open-loop target QPS (Poisson arrival rate)")
	seed := fs.Uint64("seed", 1, "trace seed; same seed, same trace")
	raw := fs.Bool("raw", false, "send positional feature vectors instead of named schema contexts")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	quick := fs.Bool("quick", false, "CI smoke preset: small trace, both targets, fail on any error")
	failOnErr := fs.Bool("failonerr", false, "exit non-zero when any request errored")
	validate := fs.String("validate", "", "validate an existing report file against the schema and exit")
	cpuprofile := fs.String("cpuprofile", "", "write cpu profile to `file`")
	memprofile := fs.String("memprofile", "", "write memory profile to `file`")
	traceFile := fs.String("trace", "", "write execution trace to `file`")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		return validateReport(*validate)
	}

	if *quick {
		*n = 3000
		*streams = 16
		if *conc > 4 {
			*conc = 4
		}
		if *durCap == 0 {
			*durCap = 20 * time.Second
		}
		// Chaos runs expect failover-window errors and churn runs may
		// lose a handful of tickets to the mid-run retire; every other
		// quick run treats any request error as a smoke failure.
		*failOnErr = !*chaos && !*churn
	}
	if *addr != "" {
		*target = "http"
	}
	if *target != "inproc" && *target != "http" && *target != "fleet" && *target != "both" {
		return fmt.Errorf("unknown -target %q (want inproc, http, fleet, both)", *target)
	}
	if *chaos && *target != "fleet" {
		return fmt.Errorf("-chaos needs -target fleet")
	}
	if *chaos && *failOnErr {
		// The drill's whole point is a bounded failover window; requests
		// caught inside it error by design.
		return fmt.Errorf("-chaos and -failonerr are mutually exclusive (chaos tolerates failover-window errors)")
	}
	if *chaos && *churn {
		// Churn broadcasts need every ring member reachable; a drill that
		// kills one mid-run would fail the lifecycle requests by design.
		return fmt.Errorf("-chaos and -churn are mutually exclusive (churn broadcasts need a fully-live fleet)")
	}
	runMode := loadgen.Mode(*mode)
	if runMode != loadgen.ModeClosed && runMode != loadgen.ModeOpen {
		return fmt.Errorf("unknown -mode %q (want closed, open)", *mode)
	}
	if *scenarioName != "" && *scenarioName != "serverless" {
		return fmt.Errorf("unknown -scenario %q (want serverless)", *scenarioName)
	}

	// Profiling wiring, as in the SchemaTreeRecommender evaluation
	// harness: CPU profile and trace bracket the run; the heap profile
	// snapshots after a final GC on the way out.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("could not create CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("could not start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bwload: could not create memory profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bwload: could not write memory profile: %v\n", err)
			}
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("could not create trace file: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("could not start tracing: %w", err)
		}
		defer trace.Stop()
	}

	// genTrace builds a fresh copy of the identical trace for each
	// target run. In scenario mode the scenario package pins its own
	// population and arrival process; the trace flags are ignored.
	var genTrace func() (*loadgen.Trace, error)
	var traceCfg loadgen.TraceConfig
	if *scenarioName != "" {
		scfg := scenario.Default(*seed)
		if *quick {
			scfg = scenario.Quick(*seed)
		}
		tr, err := scenario.Trace(scfg)
		if err != nil {
			return err
		}
		traceCfg = tr.Config
		first := tr
		genTrace = func() (*loadgen.Trace, error) {
			if first != nil {
				tr := first
				first = nil
				return tr, nil
			}
			return scenario.Trace(scfg)
		}
	} else {
		traceCfg = loadgen.TraceConfig{
			Seed:         *seed,
			App:          *app,
			Streams:      *streams,
			Requests:     *n,
			ZipfSkew:     *skew,
			ObserveRatio: *observe,
		}
		if runMode == loadgen.ModeOpen {
			traceCfg.QPS = *qps
		}
		genTrace = func() (*loadgen.Trace, error) { return loadgen.Generate(traceCfg) }
	}
	opts := loadgen.RunOptions{
		Mode:        runMode,
		Concurrency: *conc,
		Duration:    *durCap,
		Raw:         *raw,
		TimeScale:   *timeScale,
		Churn:       *churn,
	}

	report := &loadgen.Report{
		Format:    loadgen.ReportFormat,
		Version:   loadgen.ReportVersion,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Trace:     traceCfg,
	}

	var runErr error
	for _, name := range targetList(*target) {
		// Each target replays an identically-generated trace against a
		// fresh stream population, so results are comparable and runs
		// never share learned state.
		tr, err := genTrace()
		if err != nil {
			return err
		}
		tgt, err := makeTarget(name, *addr, *fleetN, *chaos)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bwload: %s/%s: %d streams, %d recommends (observe ratio %g, skew %g)...\n",
			name, runMode, len(tr.Streams), len(tr.Ops), tr.Config.ObserveRatio, tr.Config.ZipfSkew)
		res, err := loadgen.Run(tgt, tr, opts)
		cerr := tgt.Close()
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "bwload: closing %s target: %v\n", name, cerr)
		}
		if res != nil {
			// On error this is a failed partial result: it still records
			// the run configuration (target QPS included) so the report
			// stays schema-valid and diffable.
			res.Chaos = name == "fleet" && *chaos
			report.Results = append(report.Results, *res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bwload: %s/%s failed: %v\n", name, runMode, err)
			runErr = errors.Join(runErr, fmt.Errorf("%s/%s: %w", name, runMode, err))
			continue
		}
		fmt.Fprintf(os.Stderr, "bwload: %s/%s: %.0f req/s, recommend p50 %.1fµs p99 %.1fµs p999 %.1fµs, %d errors\n",
			name, runMode, res.ThroughputRPS, res.Recommend.P50US, res.Recommend.P99US, res.Recommend.P999US, res.Errors)
	}

	if err := report.Validate(); err != nil {
		return errors.Join(runErr, err)
	}
	data, err := report.EncodeJSON()
	if err != nil {
		return errors.Join(runErr, err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return errors.Join(runErr, err)
		}
		fmt.Fprintf(os.Stderr, "bwload: report written to %s\n", *out)
	} else {
		os.Stdout.Write(data)
	}
	if runErr != nil {
		return runErr
	}
	if *failOnErr {
		if errs := report.TotalErrors(); errs > 0 {
			return fmt.Errorf("%d request errors (first: %s)", errs, firstSample(report))
		}
	}
	return nil
}

func targetList(sel string) []string {
	if sel == "both" {
		return []string{"inproc", "http"}
	}
	return []string{sel}
}

func makeTarget(name, addr string, fleetN int, chaos bool) (loadgen.Target, error) {
	switch name {
	case "inproc":
		return loadgen.NewInProc(), nil
	case "http":
		if addr != "" {
			return loadgen.NewHTTP(addr), nil
		}
		return loadgen.NewSelfHTTP()
	case "fleet":
		return loadgen.NewFleet(loadgen.FleetConfig{Replicas: fleetN, Chaos: chaos})
	}
	return nil, fmt.Errorf("unknown target %q", name)
}

func firstSample(r *loadgen.Report) string {
	for i := range r.Results {
		if len(r.Results[i].ErrorSamples) > 0 {
			return r.Results[i].ErrorSamples[0]
		}
	}
	return "no sample recorded"
}

// validateReport strictly parses the report (unknown fields rejected),
// checks the schema invariants, and reports any recorded request
// errors or failed partial results as a failure — the CI smoke
// contract.
func validateReport(path string) error {
	rep, err := loadgen.ReadReport(path)
	if err != nil {
		return err
	}
	var errs uint64
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Failed != "" {
			return fmt.Errorf("%s: result %d (%s/%s) records a failed run: %s", path, i, res.Target, res.Mode, res.Failed)
		}
		if res.Chaos {
			// A chaos run expects failover-window errors; hold it to the
			// drill's bound instead of zero.
			if allowed := res.Requests / 10; res.Errors > allowed {
				return fmt.Errorf("%s: chaos result %d (%s/%s) records %d errors, failover-window bound is %d",
					path, i, res.Target, res.Mode, res.Errors, allowed)
			}
			continue
		}
		if res.Churn {
			// A churn run may lose the few tickets in flight across the
			// mid-run retire; hold it to a 1% bound instead of zero.
			if allowed := res.Requests / 100; res.Errors > allowed {
				return fmt.Errorf("%s: churn result %d (%s/%s) records %d errors, retire-window bound is %d",
					path, i, res.Target, res.Mode, res.Errors, allowed)
			}
			continue
		}
		errs += res.Errors
	}
	if errs > 0 {
		return fmt.Errorf("%s: report records %d request errors", path, errs)
	}
	fmt.Printf("%s: valid %s v%d, %d result(s), 0 errors\n", path, rep.Format, rep.Version, len(rep.Results))
	for i := range rep.Results {
		res := &rep.Results[i]
		fmt.Printf("  %s/%s: %d reqs, %.0f req/s, recommend p50 %.1fµs p99 %.1fµs p999 %.1fµs\n",
			res.Target, res.Mode, res.Requests, res.ThroughputRPS, res.Recommend.P50US, res.Recommend.P99US, res.Recommend.P999US)
	}
	return nil
}
