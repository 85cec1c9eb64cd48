package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"banditware/internal/core"
	"banditware/internal/hardware"
)

// TestConcurrentServeStress hammers one service from many goroutines —
// hot-path traffic, direct observes, arm churn, snapshot saves, delta
// captures and stats — to let the race detector check the COW registry,
// the pooled ledger and the stream/sync lock order. Functional
// assertions are deliberately light; the value is the interleaving.
func TestConcurrentServeStress(t *testing.T) {
	s := NewService(ServiceOptions{})
	for i := 0; i < 4; i++ {
		err := s.CreateStream(fmt.Sprintf("s%d", i), StreamConfig{
			Hardware: testHW(), Dim: 2, Options: core.Options{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const iters = 300
	var wg sync.WaitGroup
	// Hot-path traffic on its own stream per goroutine. A ticket issued
	// on a churned arm is evicted if the arm retires before the observe
	// lands, so ErrTicketNotFound is the one tolerated failure.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			var tk Ticket
			for i := 0; i < iters; i++ {
				x := []float64{float64(i % 7), float64(g)}
				if err := s.RecommendInto(name, x, &tk); err != nil {
					t.Error(err)
					return
				}
				err := s.ObserveSeq(name, tk.Seq, 1.0+float64(i%5))
				if err != nil && !errors.Is(err, ErrTicketNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Direct observes on a stream without churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := s.ObserveDirectOutcome("s3", i%3, []float64{1, float64(i % 4)}, Outcome{Runtime: 2.0}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Arm churn: add, drain, retire on the traffic streams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("s%d", i%3)
			arm, err := s.AddArm(name, ArmAdd{
				Hardware: hardware.Config{Name: fmt.Sprintf("X%d-%d", i%3, i), CPUs: 2 + i%3, MemoryGB: 8},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.DrainArm(name, arm); err != nil {
				t.Error(err)
				return
			}
			if err := s.RetireArm(name, arm); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Snapshots, deltas, stats.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := s.NewSyncState()
		for i := 0; i < 10; i++ {
			if err := s.Save(io.Discard); err != nil {
				t.Error(err)
				return
			}
			c, err := s.CaptureDelta(base)
			if err != nil {
				t.Error(err)
				return
			}
			c.Commit()
			_ = s.Stats()
		}
	}()
	wg.Wait()
	if n := infoOf(t, s, "s3").Round; n != iters {
		t.Fatalf("direct-observe stream round = %d, want %d", n, iters)
	}
}
