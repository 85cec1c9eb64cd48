// BP3D: the paper's Figure-1 pipeline plus Experiment 2.
//
// Synthesises the 1316-run BurnPro3D trace, walks it through the
// framework's input pipeline (per-hardware tables → retrieve useful
// columns → merge), bootstraps a recommender offline from the merged
// history, and then recommends hardware for new burn units — including
// the tolerance knob that trades a bounded slowdown for smaller
// allocations.
//
//	go run ./examples/bp3d
package main

import (
	"fmt"
	"log"

	"banditware"
	"banditware/internal/workloads"
)

func main() {
	trace, err := banditware.GenerateBP3D(banditware.BP3DOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// --- Figure 1 pipeline -------------------------------------------
	perHW := trace.PerArm()
	cols := len(trace.Columns(true)) // the "Retrieve Useful Data" projection
	fmt.Println("per-hardware performance tables (the raw input of Figure 1):")
	for arm, name := range trace.Hardware.Names() {
		fmt.Printf("  %s: %d runs × %d columns\n", name, len(perHW[arm].Runs), cols)
	}
	merged := workloads.Concat(perHW...)
	fmt.Printf("merged training table: %d rows × %d columns\n\n", len(merged.Runs), cols)

	// --- offline bootstrap, then online use --------------------------
	rec, err := banditware.FitOffline(trace, banditware.Options{
		Seed:        11,
		ZeroEpsilon: true, // serve recommendations without exploration
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recommender bootstrapped from %d historical runs\n\n", rec.Round())

	// A new burn unit: mid moisture, calm wind, 1.8M m².
	burnUnit := []float64{0.2, 1.0, 180, 5, 4000, 8e9, 1.8e6}
	preds, err := rec.PredictAll(burnUnit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("predicted runtime for a new 1.8M m² burn unit:")
	for i, p := range preds {
		fmt.Printf("  %-10s %8.0f s (cost %.1f)\n", trace.Hardware[i], p, trace.Hardware[i].Cost())
	}

	strict := banditware.TolerantSelect(preds, trace.Hardware, 0, 0)
	tolerant := banditware.TolerantSelect(preds, trace.Hardware, 0.05, 300)
	fmt.Printf("\nstrict selection (fastest):              %s\n", trace.Hardware[strict])
	fmt.Printf("tolerant selection (5%% + 300 s budget):  %s\n", trace.Hardware[tolerant])
	fmt.Println("\nwith near-identical hardware behaviour, the tolerance steers the")
	fmt.Println("choice toward the smallest allocation — the paper's Experiment 2 point.")
}
