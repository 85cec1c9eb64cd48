package banditware

import (
	"os"

	"banditware/internal/workloads"
)

// Trace is a workload dataset: recorded runs plus (for generated traces)
// the generative ground truth used by the experiment harness.
type Trace = workloads.Dataset

// TraceRun is one recorded workflow execution.
type TraceRun = workloads.Run

// CyclesOptions configures the Cycles trace generator (paper
// Experiment 1).
type CyclesOptions = workloads.CyclesOptions

// BP3DOptions configures the BurnPro3D trace generator (paper
// Experiment 2).
type BP3DOptions = workloads.BP3DOptions

// MatMulOptions configures the matrix-multiplication trace generator
// (paper Experiment 3).
type MatMulOptions = workloads.MatMulOptions

// LLMOptions configures the LLM-inference trace generator (the paper's
// future-work workload with GPU-bearing hardware).
type LLMOptions = workloads.LLMOptions

// GenerateCycles synthesises the Cycles workload trace: 80 runs over four
// synthetic hardware settings with clear performance trade-offs.
func GenerateCycles(opts CyclesOptions) (*Trace, error) {
	return workloads.GenerateCycles(opts)
}

// GenerateBP3D synthesises the BurnPro3D workload trace: 1316 runs over
// the Table-1 features on three nearly-identical NDP hardware settings.
func GenerateBP3D(opts BP3DOptions) (*Trace, error) {
	return workloads.GenerateBP3D(opts)
}

// GenerateMatMul synthesises the matrix-squaring workload trace: 2520
// runs over five hardware settings, hardware-sensitive only at large
// matrix sizes.
func GenerateMatMul(opts MatMulOptions) (*Trace, error) {
	return workloads.GenerateMatMul(opts)
}

// GenerateLLM synthesises an LLM-inference trace over GPU-bearing
// hardware — the paper's stated future-work direction, implemented.
func GenerateLLM(opts LLMOptions) (*Trace, error) {
	return workloads.GenerateLLM(opts)
}

// WriteTraceCSV persists a trace in the canonical long form
// (id, hardware, cpus, memory_gb, features..., runtime), with a gpus
// column after memory_gb when some arm has GPUs. Only the trace's
// shape is checked, so a trace loaded by ReadTraceCSV can be written
// back; a file this function wrote round-trips byte for byte.
func WriteTraceCSV(t *Trace, path string) error { return t.WriteCSVFile(path, false) }

// ReadTraceCSV loads a trace from canonical long-form CSV. Traces loaded
// from CSV carry no generative ground truth (Truth/Noise are nil): they
// support offline training and evaluation but not counterfactual
// simulation. A missing column or a cell that does not parse is an
// error naming the row and column.
func ReadTraceCSV(path string, featureNames []string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workloads.ReadCSV(f, featureNames)
}

// FitOffline trains a recommender from a recorded trace by replaying
// every run as an observation (in trace order). This is the "small
// historical dataset" bootstrap from the paper's Figure 1: the returned
// recommender continues to learn online from there. opts.Epsilon0 applies
// from the end of the replay; during the replay no recommendations are
// made, so no exploration randomness is consumed.
func FitOffline(t *Trace, opts Options) (*Recommender, error) {
	rec, err := New(t.Hardware, t.Dim(), opts)
	if err != nil {
		return nil, err
	}
	for _, run := range t.Runs {
		if err := rec.Observe(run.Arm, run.Features, run.Runtime); err != nil {
			return nil, err
		}
	}
	return rec, nil
}
