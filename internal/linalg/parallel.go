package linalg

import (
	"runtime"
	"sync"
)

// DefaultTile is the cache-blocking tile edge used by the tiled kernels.
// 64×64 float64 tiles (32 KiB) fit comfortably in L1/L2 on commodity CPUs.
const DefaultTile = 64

// mulBlockedRange computes rows [r0, r1) of dst += a·b with tiling.
func mulBlockedRange(dst, a, b *Matrix, tile, r0, r1 int) {
	n, p := a.Cols, b.Cols
	for ii := r0; ii < r1; ii += tile {
		iMax := min(ii+tile, r1)
		for kk := 0; kk < n; kk += tile {
			kMax := min(kk+tile, n)
			for jj := 0; jj < p; jj += tile {
				jMax := min(jj+tile, p)
				for i := ii; i < iMax; i++ {
					arow := a.Row(i)
					drow := dst.Row(i)
					for k := kk; k < kMax; k++ {
						aik := arow[k]
						if aik == 0 {
							continue
						}
						brow := b.Data[k*p : (k+1)*p]
						for j := jj; j < jMax; j++ {
							drow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// MulParallel returns a·b computed by `workers` goroutines, each owning a
// contiguous block of output rows (no synchronisation needed on the output).
// workers <= 0 selects runtime.GOMAXPROCS(0). This is the "fully
// parallelized, tiled matrix multiplication" kernel from the paper's third
// workload: its speedup with the core count is exactly the hardware
// sensitivity the bandit learns to exploit.
func MulParallel(a, b *Matrix, workers int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, ErrShape
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	out := NewMatrix(a.Rows, b.Cols)
	if workers <= 1 {
		mulBlockedRange(out, a, b, DefaultTile, 0, a.Rows)
		return out, nil
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		r1 := min(r0+chunk, a.Rows)
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			mulBlockedRange(out, a, b, DefaultTile, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
	return out, nil
}

// Square returns a·a using the parallel tiled kernel. It returns ErrShape
// for non-square input.
func Square(a *Matrix, workers int) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	return MulParallel(a, a, workers)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
