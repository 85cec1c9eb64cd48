package serve

import (
	"fmt"
	"sync/atomic"
	"testing"

	"banditware/internal/core"
)

// Contention benchmarks for the copy-on-write stream registry. Every
// serve-path operation resolves its stream through a lock-free
// atomic.Pointer load, so goroutines serving *different* streams never
// touch a shared lock — throughput should scale with parallelism until
// the cores run out (compare the 1/4/16-goroutine variants; run with
// -cpu to vary GOMAXPROCS too). Goroutines serving the same stream
// still serialise on that stream's mutex by design: the engine update
// is a read-modify-write of the model.
//
//	go test ./internal/serve/ -run='^$' -bench=Parallel -benchmem

const benchStreams = 16

func newBenchService(b *testing.B, opts ServiceOptions) *Service {
	b.Helper()
	s := NewService(opts)
	for i := 0; i < benchStreams; i++ {
		err := s.CreateStream(fmt.Sprintf("s%02d", i), StreamConfig{
			Hardware: testHW(), Dim: 3, Options: core.Options{Seed: uint64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Warm every stream past its first-allocation phase.
	var tk Ticket
	for i := 0; i < benchStreams; i++ {
		name := fmt.Sprintf("s%02d", i)
		for j := 0; j < 64; j++ {
			if err := s.RecommendInto(name, []float64{1, 2, 3}, &tk); err != nil {
				b.Fatal(err)
			}
			if err := s.ObserveSeq(name, tk.Seq, 2.0); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

// benchParallelCycle drives full recommend+observe cycles from
// par×GOMAXPROCS goroutines, each sticking to its own stream shard so
// the registry (not a stream lock) is the shared structure under test.
func benchParallelCycle(b *testing.B, s *Service, par int) {
	b.Helper()
	names := make([]string, benchStreams)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	var gid atomic.Int64
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var tk Ticket
		x := []float64{1, 2, 3}
		// Round-robin goroutine→stream assignment keeps per-stream
		// serialisation out of the measurement as far as parallelism
		// allows.
		id := int(gid.Add(1)) - 1
		name := names[id%benchStreams]
		for pb.Next() {
			if err := s.RecommendInto(name, x, &tk); err != nil {
				b.Fatal(err)
			}
			if err := s.ObserveSeq(name, tk.Seq, 2.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParallelRecommendObserve1(b *testing.B) {
	benchParallelCycle(b, newBenchService(b, ServiceOptions{}), 1)
}

func BenchmarkParallelRecommendObserve4(b *testing.B) {
	benchParallelCycle(b, newBenchService(b, ServiceOptions{}), 4)
}

func BenchmarkParallelRecommendObserve16(b *testing.B) {
	benchParallelCycle(b, newBenchService(b, ServiceOptions{}), 16)
}

// BenchmarkParallelRegistryRead pins the cost of the lock-free stream
// lookup itself (NumStreams + a stream-resolving read per op) across
// parallelism levels; with the COW registry this is a single atomic
// pointer load and scales linearly.
func BenchmarkParallelRegistryRead(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			s := newBenchService(b, ServiceOptions{})
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := s.StreamInfo("s00"); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServiceRecommendBatch measures the amortisation of taking the
// stream lock once per batch instead of once per decision: each op is
// one batch recommend and one batch observe of its tickets, the paths
// behind the HTTP batch routes.
func BenchmarkServiceRecommendBatch(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			s := newBenchService(b, ServiceOptions{})
			xs := make([][]float64, size)
			for i := range xs {
				xs[i] = []float64{float64(i + 1), 2, 3}
			}
			obs := make([]ticketObservation, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tks, err := s.recommendBatch("s00", xs, nil)
				if err != nil {
					b.Fatal(err)
				}
				for j, t := range tks {
					obs[j] = ticketObservation{TicketID: t.ID, Runtime: 100}
				}
				if n, errs := s.observeBatch("s00", obs); n != len(obs) {
					b.Fatal(errs)
				}
			}
			b.ReportMetric(float64(size), "decisions/op")
		})
	}
}
