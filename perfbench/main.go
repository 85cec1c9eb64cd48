// Command perfbench is the repository benchmark. It replays a seeded
// trace against one of four serving workloads, prints every metric by
// name with its unit, checks that the outputs are correct, and ends with
// one JSON result line. NOTES.md describes the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload inproc-policies --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run measures half its time untraced and half traced,
// writes the traced spans to .bench_build/spans/, and the result
// carries the per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloadDef ties a workload name to its driver and latency limit.
type workloadDef struct {
	name  string
	limit time.Duration
	run   func(runConfig) (*runOutput, error)
}

var workloads = []workloadDef{
	{"inproc-policies", inprocLimit, runInproc},
	{"http-open", httpLimit, runHTTPOpen},
	{"fleet-observe-heavy", fleetLimit, runFleet},
	{"fleet-polled", fleetLimit, runFleetPolled},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flags.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flags.Uint64("seed", 1, "trace seed")
	seconds := flags.Float64("seconds", 10, "measured seconds (split untraced/traced with --trace 1)")
	trace := flags.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, workers: runtime.GOMAXPROCS(0)}
	out, err := wl.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if out.merged.err != nil {
		fmt.Fprintf(stderr, "perfbench: first failed operation: %v\n", out.merged.err)
	}

	e2e, e2eN := endToEndValues(out)
	result := benchResult{Correct: true}
	for _, p := range out.phases {
		result.Attempted += p.attempted
		result.Failed += p.failed
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d workers=%d\n",
		wl.name, rc.seed, rc.seconds, *trace, rc.workers)
	printTable(stdout, "end-to-end (untraced phase)", endToEnd, e2e, e2eN)
	fmt.Fprintf(stdout, "cpu steal (median share per slice): %.3f\n", out.phases[0].steal)

	checks := out.checks
	defs, vals := endToEnd, e2e
	if rc.traced {
		layer, layerN, layerChecks, err := perLayerValues(out, rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		checks = append(checks, layerChecks...)
		printTable(stdout, "per-layer (traced phase)", perLayer, layer, layerN)
		path := filepath.Join(".bench_build", "spans", wl.name+".tsv")
		header := fmt.Sprintf("workload=%s seed=%d spans=%d dropped=%d", wl.name, rc.seed, len(out.spans), out.dropped)
		if err := writeSpans(path, header, out.spans, selfTimes(out.spans)); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s (%d kept, %d dropped)\n", path, len(out.spans), out.dropped)
		defs, vals = perLayer, layer
	}
	for _, c := range checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
			result.Correct = false
		}
		fmt.Fprintf(stdout, "check %s %s: %s\n", mark, c.Name, c.Detail)
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	result.Metrics = metrics
	if err := writeJSONLine(stdout, runMeta(wl.name, rc, e2eN)); err != nil {
		return 1
	}
	if err := writeJSONLine(stdout, result); err != nil {
		return 1
	}
	if !result.Correct {
		return 1
	}
	return 0
}

// endToEndValues computes the end-to-end metrics from the untraced phase,
// with the sample count behind each.
func endToEndValues(out *runOutput) (map[string]float64, map[string]uint64) {
	p := out.phases[0]
	v := map[string]float64{
		"throughput_ops_s":   p.throughput,
		"recommend_p50_us":   p.recP50,
		"recommend_p99_us":   p.recP99,
		"observe_p50_us":     p.obsP50,
		"observe_p99_us":     p.obsP99,
		"within_limit_share": p.withinLimit,
		"success_share":      1,
		"regret_ratio":       out.merged.regret.total().ratio(),
		"setup_s":            median(append([]float64(nil), out.setup...)),
		"live_heap_mb":       out.heapMB,
	}
	if p.attempted > 0 {
		v["success_share"] = 1 - float64(p.failed)/float64(p.attempted)
	}
	n := map[string]uint64{
		"throughput_ops_s": p.ops(), "recommend_p50_us": p.recN, "recommend_p99_us": p.recN,
		"observe_p50_us": p.obsN, "observe_p99_us": p.obsN, "within_limit_share": p.recN,
		"success_share": p.attempted, "setup_s": uint64(len(out.setup)),
	}
	return v, n
}

// perLayerValues computes every per-layer metric of a traced run. A layer
// the workload does not exercise reads 0 with 0 samples.
func perLayerValues(out *runOutput, rc runConfig) (map[string]float64, map[string]uint64, []check, error) {
	vals := make(map[string]float64, len(perLayer))
	samples := map[string]uint64{}
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	for k, v := range out.layer {
		vals[k] = v
	}
	checks := layerFromSpans(out, vals, samples)
	if err := layerReplays(out.trace, out.merged.seq, rc.seed, vals, samples); err != nil {
		return nil, nil, nil, err
	}
	untraced, traced := out.phases[0], out.phases[1]
	if ops := untraced.ops(); ops > 0 {
		vals["runtime.allocs_per_op"] = float64(out.mem.mallocs) / float64(ops)
		vals["runtime.bytes_per_op"] = float64(out.mem.bytes) / float64(ops)
	}
	vals["runtime.gc_cycles"] = float64(out.mem.gcs)
	vals["runtime.gc_pause_ms"] = float64(out.mem.pause) / 1e6
	vals["bench.gen_late_us.p99"] = traced.genLateP99
	if untraced.throughput > 0 {
		vals["bench.trace_overhead"] = 1 - traced.throughput/untraced.throughput
	}
	return vals, samples, checks, nil
}

// runMeta records what a result depends on besides the workload.
func runMeta(workload string, rc runConfig, samples map[string]uint64) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"meta": map[string]any{
			"workload": workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.traced,
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "workers": rc.workers,
			"go_version": runtime.Version(), "commit": commit, "commit_modified": modified,
			"source_sha256": sourceDigest("."), "samples": samples,
		},
	}
}

// sourceDigest hashes the Go sources under root, so a result from a
// checkout without git history still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
