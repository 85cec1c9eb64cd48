package workloads

import (
	"fmt"
	"time"

	"banditware/internal/linalg"
	"banditware/internal/rng"
)

// MatMulSpec describes one real matrix-squaring execution: the workload
// the paper's third application actually runs. Unlike the trace generator
// in this package, RunMatMulKernel executes the tiled parallel kernel and
// measures wall-clock time, so examples and benchmarks can collect real
// (machine-local) traces.
type MatMulSpec struct {
	// Size is the square matrix edge length.
	Size int
	// Sparsity is the fraction of zero entries in [0, 1).
	Sparsity float64
	// MinValue/MaxValue bound the random integer entries.
	MinValue, MaxValue int
	// Workers caps the kernel's parallelism, modelling the hardware
	// setting's CPU allocation. <= 0 means all available cores.
	Workers int
	// Seed drives matrix generation.
	Seed uint64
}

// Validate rejects non-sensical specs.
func (s MatMulSpec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("workloads: non-positive matrix size %d", s.Size)
	}
	if s.Sparsity < 0 || s.Sparsity >= 1 {
		return fmt.Errorf("workloads: sparsity %v outside [0, 1)", s.Sparsity)
	}
	if s.MaxValue < s.MinValue {
		return fmt.Errorf("workloads: value range [%d, %d] inverted", s.MinValue, s.MaxValue)
	}
	return nil
}

// GenerateMatrix materialises the spec's random input matrix. Matrix
// generation is excluded from the runtime measurement, matching the paper
// ("matrix generation is not included in the runtime measurement").
func GenerateMatrix(s MatMulSpec) (*linalg.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(s.Seed)
	m := linalg.NewMatrix(s.Size, s.Size)
	span := s.MaxValue - s.MinValue + 1
	for i := range m.Data {
		if r.Float64() < s.Sparsity {
			continue // stays zero
		}
		m.Data[i] = float64(s.MinValue + r.Intn(span))
	}
	return m, nil
}

// KernelResult reports one measured kernel execution.
type KernelResult struct {
	Spec    MatMulSpec
	Elapsed time.Duration
	// Checksum is the Frobenius norm of the output, kept so the compiler
	// cannot elide the computation and callers can sanity-check runs.
	Checksum float64
}

// RunMatMulKernel generates the input (untimed), squares it with the
// tiled parallel kernel, and returns the measured wall time.
func RunMatMulKernel(s MatMulSpec) (KernelResult, error) {
	m, err := GenerateMatrix(s)
	if err != nil {
		return KernelResult{}, err
	}
	start := time.Now()
	sq, err := linalg.Square(m, s.Workers)
	if err != nil {
		return KernelResult{}, err
	}
	elapsed := time.Since(start)
	return KernelResult{Spec: s, Elapsed: elapsed, Checksum: sq.FrobeniusNorm()}, nil
}
