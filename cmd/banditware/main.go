// Command banditware is the command-line interface to the BanditWare
// hardware recommender:
//
//	banditware generate  -app cycles|bp3d|matmul -out trace.csv [-seed N]
//	banditware simulate  -app cycles|bp3d|matmul [-rounds N] [-sims N] [-tr R] [-ts S]
//	banditware init      -state state.json -hardware "H0=2x16;H1=3x24" -dim D
//	banditware recommend -state state.json -features 1,2,...
//	banditware observe   -state state.json -arm K -features 1,2,... -runtime S
//	banditware serve     [-port P] [-state svc.json] [-snapshot 30s] [-ttl 1h] [-pending N] [-create stream.json] [-peers URL,URL] [-sync 1s] [-bootstrap]
//	banditware router    -replicas URL,URL,... [-port P] [-poll 2s]
//	banditware arms      list|add|drain|promote|retire -addr URL -stream NAME [...]
//	banditware kernel    -size N [-workers W] [-sparsity F]
//
// generate synthesises one of the paper's workload traces; simulate runs
// the online experiment and renders the round-by-round RMSE/accuracy in
// the terminal; init/recommend/observe manage a persistent recommender
// over JSON state (the single-stream deployment loop); serve runs the
// concurrent multi-stream HTTP service — stream management under
// /v1/streams, decision-ticket recommend/observe (single and batch)
// under /v1/streams/{name}/..., and /v1/stats — with optional periodic
// state snapshots, and with -peers it joins a replicated fleet that
// exchanges learning deltas; router fronts such a fleet, consistent-
// hashing streams across the replicas with health-checked membership;
// arms manages a live stream's hardware arm set over that API — the
// add → drain → promote/retire rollout cycle, against a single serve
// instance or a router (which broadcasts the transitions fleet-wide);
// kernel executes the real tiled parallel matrix-squaring workload and
// reports the measured runtime.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"banditware"
	"banditware/internal/core"
	"banditware/internal/experiment"
	"banditware/internal/stats"
	"banditware/internal/textplot"
	"banditware/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "init":
		err = cmdInit(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "observe":
		err = cmdObserve(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "arms":
		err = cmdArms(os.Args[2:])
	case "kernel":
		err = cmdKernel(os.Args[2:])
	case "describe":
		err = cmdDescribe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "banditware: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "banditware: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: banditware <command> [flags]

commands:
  generate   synthesise a workload trace CSV (cycles, bp3d, matmul)
  simulate   run the online bandit experiment on a generated trace
  init       create a fresh recommender state file
  recommend  recommend hardware for a workflow (reads state)
  observe    record an observed runtime (updates state)
  serve      run the concurrent multi-stream HTTP recommender service
             (-port, -addr, -state snapshot file, -snapshot interval,
              -ttl ticket expiry, -pending ledger capacity,
              -create stream.json to register a stream at startup from
              a POST /v1/streams body (repeatable);
              -peers URL,URL to join a scale-out fleet, with -sync
              delta push interval, -self advertised URL, and
              -bootstrap to import a peer snapshot before serving)
  router     front a replica fleet with the consistent-hash stream
             router (-replicas URL,URL required; -poll readiness
             interval)
  arms       manage a live stream's hardware arm set over the API
             (list, add -hardware "H3=8x64" [-warm pooled] [-trial],
              drain/promote/retire -arm K; -addr picks the serve
              instance or router, -stream the stream)
  kernel     run the real parallel matrix-squaring workload
  describe   summarise a trace CSV (per-column statistics)`)
}

func generateTrace(app string, seed uint64) (*banditware.Trace, error) {
	switch app {
	case "cycles":
		return banditware.GenerateCycles(banditware.CyclesOptions{Seed: seed})
	case "bp3d":
		return banditware.GenerateBP3D(banditware.BP3DOptions{Seed: seed})
	case "matmul":
		return banditware.GenerateMatMul(banditware.MatMulOptions{Seed: seed})
	default:
		return nil, fmt.Errorf("unknown app %q (want cycles, bp3d, or matmul)", app)
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	app := fs.String("app", "cycles", "workload: cycles, bp3d, or matmul")
	out := fs.String("out", "", "output CSV path (required)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	trace, err := generateTrace(*app, *seed)
	if err != nil {
		return err
	}
	if err := banditware.WriteTraceCSV(trace, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d runs (%s, %d hardware settings, features %s) to %s\n",
		len(trace.Runs), trace.App, len(trace.Hardware),
		strings.Join(trace.FeatureNames, ","), *out)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	app := fs.String("app", "cycles", "workload: cycles, bp3d, or matmul")
	rounds := fs.Int("rounds", 50, "online rounds per simulation")
	sims := fs.Int("sims", 10, "independent simulations")
	tr := fs.Float64("tr", 0, "tolerance ratio")
	ts := fs.Float64("ts", 0, "tolerance seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace, err := generateTrace(*app, *seed)
	if err != nil {
		return err
	}
	res, err := experiment.RunBandit(experiment.BanditConfig{
		Dataset: trace,
		Options: core.Options{ToleranceRatio: *tr, ToleranceSeconds: *ts},
		NRounds: *rounds,
		NSim:    *sims,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d rounds x %d sims, tolerance (ratio=%g, seconds=%g)\n\n",
		*app, *rounds, *sims, *tr, *ts)
	rmse := make([]float64, len(res.Rounds))
	acc := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		rmse[i] = r.RMSEMean
		acc[i] = r.AccMean
	}
	fmt.Println("RMSE over rounds (dashed line = full-fit baseline):")
	fmt.Print(textplot.Line(rmse, 60, 10, res.BaselineRMSE))
	fmt.Println("\naccuracy over rounds (dashed line = full-fit accuracy):")
	fmt.Print(textplot.Line(acc, 60, 10, res.BaselineAccuracy))
	fmt.Println()
	fmt.Print(experiment.MarkdownRounds(res, nil))
	return nil
}

func parseFeatures(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func loadState(path string) (*banditware.Recommender, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return banditware.Load(f)
}

func saveState(rec *banditware.Recommender, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	state := fs.String("state", "", "state file to create (required)")
	hw := fs.String("hardware", "H0=2x16;H1=3x24;H2=4x16", "hardware set")
	dim := fs.Int("dim", 1, "workflow feature dimension")
	alpha := fs.Float64("alpha", 0.99, "epsilon decay factor")
	eps := fs.Float64("epsilon", 1, "initial exploration rate")
	tr := fs.Float64("tr", 0, "tolerance ratio")
	ts := fs.Float64("ts", 0, "tolerance seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("init: -state is required")
	}
	set, err := banditware.ParseHardwareSet(*hw)
	if err != nil {
		return err
	}
	opts := banditware.Options{
		Alpha: *alpha, Epsilon0: *eps, ZeroEpsilon: *eps == 0,
		ToleranceRatio: *tr, ToleranceSeconds: *ts, Seed: *seed,
	}
	rec, err := banditware.New(set, *dim, opts)
	if err != nil {
		return err
	}
	if err := saveState(rec, *state); err != nil {
		return err
	}
	fmt.Printf("initialised recommender over %d hardware settings (dim %d) at %s\n",
		len(set), *dim, *state)
	return nil
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	state := fs.String("state", "", "state file (required)")
	features := fs.String("features", "", "comma-separated workflow features")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("recommend: -state is required")
	}
	rec, err := loadState(*state)
	if err != nil {
		return err
	}
	x, err := parseFeatures(*features)
	if err != nil {
		return err
	}
	d, err := rec.Recommend(x)
	if err != nil {
		return err
	}
	hw := rec.Hardware()
	mode := "exploit"
	if d.Explored {
		mode = "explore"
	}
	fmt.Printf("recommendation: arm %d = %s (%s, epsilon %.3f)\n", d.Arm, hw[d.Arm], mode, d.Epsilon)
	for i, p := range d.Predicted {
		marker := " "
		if i == d.Arm {
			marker = "*"
		}
		fmt.Printf("  %s %-12s predicted %s\n", marker, hw[i], fmtSeconds(p))
	}
	// Recommendations consume exploration randomness; persist it.
	return saveState(rec, *state)
}

func fmtSeconds(v float64) string {
	if math.Abs(v) >= 3600 {
		return fmt.Sprintf("%.2f h", v/3600)
	}
	return fmt.Sprintf("%.2f s", v)
}

func cmdObserve(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	state := fs.String("state", "", "state file (required)")
	arm := fs.Int("arm", -1, "hardware arm the workflow ran on (required)")
	features := fs.String("features", "", "comma-separated workflow features")
	runtime := fs.Float64("runtime", math.NaN(), "observed runtime in seconds (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" || *arm < 0 || math.IsNaN(*runtime) {
		return fmt.Errorf("observe: -state, -arm and -runtime are required")
	}
	rec, err := loadState(*state)
	if err != nil {
		return err
	}
	x, err := parseFeatures(*features)
	if err != nil {
		return err
	}
	if err := rec.Observe(*arm, x, *runtime); err != nil {
		return err
	}
	if err := saveState(rec, *state); err != nil {
		return err
	}
	fmt.Printf("recorded %.2f s on arm %d (round %d, epsilon now %.3f)\n",
		*runtime, *arm, rec.Round(), rec.Epsilon())
	return nil
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	in := fs.String("in", "", "trace CSV path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("describe: -in is required")
	}
	return describeCSV(os.Stdout, *in)
}

// describeCSV writes the shape of the CSV file at path to w, then a CSV
// table with one row (count, mean, std, min, median, max) per column
// whose cells all parse as numbers.
func describeCSV(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return fmt.Errorf("describe: reading csv: %w", err)
	}
	if len(records) == 0 {
		return fmt.Errorf("describe: empty csv (no header)")
	}
	header, rows := records[0], records[1:]
	fmt.Fprintf(w, "%s: %d rows × %d columns\n\n", path, len(rows), len(header))
	out := csv.NewWriter(w)
	out.Write([]string{"column", "count", "mean", "std", "min", "median", "max"})
	vals := make([]float64, len(rows))
columns:
	for j, name := range header {
		for i, rec := range rows {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				continue columns
			}
			vals[i] = v
		}
		s, err := stats.Summarize(vals)
		if err != nil { // no rows
			continue
		}
		out.Write([]string{name, strconv.Itoa(s.N), fmtFloat(s.Mean), fmtFloat(s.Std),
			fmtFloat(s.Min), fmtFloat(s.Median), fmtFloat(s.Max)})
	}
	out.Flush()
	return out.Error()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func cmdKernel(args []string) error {
	fs := flag.NewFlagSet("kernel", flag.ExitOnError)
	size := fs.Int("size", 512, "matrix edge length")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores)")
	sparsity := fs.Float64("sparsity", 0, "fraction of zero entries [0,1)")
	seed := fs.Uint64("seed", 1, "matrix generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := workloads.RunMatMulKernel(workloads.MatMulSpec{
		Size: *size, Sparsity: *sparsity, MinValue: -10, MaxValue: 10,
		Workers: *workers, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("squared %dx%d matrix (sparsity %.2f) with %d workers in %v (checksum %.4g)\n",
		*size, *size, *sparsity, *workers, res.Elapsed, res.Checksum)
	return nil
}
