package loadgen

import (
	"fmt"
	"sync"

	"banditware/internal/schema"
	"banditware/internal/serve"
)

// HotPath targets the zero-allocation serving API of an in-process
// Service: RecommendInto / RecommendCtxInto with pooled caller-owned
// tickets, pooled named-context maps, and seq-keyed observes that skip
// ticket-ID rendering entirely. Comparing it against the "inproc"
// target prices exactly what the classic convenience API costs per
// request (fresh Ticket, ID string, per-call context map).
type HotPath struct {
	Service *serve.Service
	// tickets holds *serve.Ticket values workers borrow for the duration
	// of one recommend; the Predicted backing array survives recycling.
	tickets sync.Pool
	// ctxs holds *schema.Context values with reusable Numeric maps,
	// cleared and refilled per request.
	ctxs sync.Pool
}

// NewHotPath builds a hot-path target around a fresh Service.
func NewHotPath() *HotPath {
	t := &HotPath{Service: serve.NewService(serve.ServiceOptions{})}
	t.tickets.New = func() any { return new(serve.Ticket) }
	t.ctxs.New = func() any {
		return &schema.Context{Numeric: make(map[string]float64, 16)}
	}
	return t
}

func (t *HotPath) Name() string { return "hotpath" }

func (t *HotPath) Setup(tr *Trace) error {
	for i, s := range tr.Streams {
		cfg := serve.StreamConfig{
			Hardware: tr.Hardware,
			Schema:   tr.Schema.Clone(),
			Options:  streamOptions(tr.Config.Seed, i),
		}
		if err := t.Service.CreateStream(s.Name, cfg); err != nil {
			return fmt.Errorf("loadgen: create stream %s: %w", s.Name, err)
		}
	}
	return nil
}

func (t *HotPath) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	ctx := t.ctxs.Get().(*schema.Context)
	clear(ctx.Numeric)
	for i, n := range tr.FeatureNames {
		ctx.Numeric[n] = op.Features[i]
	}
	tk := t.tickets.Get().(*serve.Ticket)
	err := t.Service.RecommendCtxInto(stream, *ctx, tk)
	d := Decision{Stream: stream, Arm: tk.Arm, Seq: tk.Seq}
	t.tickets.Put(tk)
	t.ctxs.Put(ctx)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

func (t *HotPath) RecommendRaw(stream string, op *Op) (Decision, error) {
	tk := t.tickets.Get().(*serve.Ticket)
	err := t.Service.RecommendInto(stream, op.Features, tk)
	d := Decision{Stream: stream, Arm: tk.Arm, Seq: tk.Seq}
	t.tickets.Put(tk)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Observe satisfies the Target interface for tickets that do carry an
// ID (none issued by this target do); the driver routes this target's
// observes through ObserveSeq.
func (t *HotPath) Observe(ticket string, runtime float64) error {
	return t.Service.Observe(ticket, runtime)
}

// ObserveSeq redeems a ticket by (stream, seq) — the allocation-free
// observe the driver prefers when a decision carries no ID string.
func (t *HotPath) ObserveSeq(stream string, seq uint64, runtime float64) error {
	return t.Service.ObserveSeq(stream, seq, runtime)
}

func (t *HotPath) Close() error { return nil }
