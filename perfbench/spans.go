package main

import (
	"bufio"
	"cmp"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spanNone spanName = iota
	// Root of an open-loop recommend: due time → response read.
	spanRecommend
	// Client side of the HTTP workloads.
	spanSlotWait        // due time → send (open loop only)
	spanClientRecommend // send → response read
	spanClientObserve
	spanScrape // one GET /v1/stats round trip
	// In-process service calls (inproc-policies).
	spanServeRecommend
	spanServeObserve
	// serve.NewHandler, wrapped by the benchmark (http-open).
	spanHTTPRecommend
	spanHTTPObserve
	spanHTTPStats
	spanHTTPOther
	// dist.Router.Handler and dist.Replica.Handler, wrapped by the
	// benchmark (fleet-observe-heavy).
	spanRouterRecommend
	spanRouterObserve
	spanRouterOther
	spanReplicaRecommend
	spanReplicaObserve
	spanReplicaOther
	spanDeltaApply // POST /v1/dist/delta on a replica
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"", "bench.recommend", "bench.slot_wait",
	"http.client.recommend", "http.client.observe", "http.client.stats",
	"serve.recommend", "serve.observe",
	"http.recommend_handler", "http.observe_handler", "http.stats_handler", "http.other_handler",
	"dist.router.recommend", "dist.router.observe", "dist.router.other",
	"dist.replica.recommend", "dist.replica.observe", "dist.replica.other",
	"dist.sync.apply",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval at a layer boundary. IDs are 1-based slot
// indices into the recording buffer; Parent 0 marks a root. Spans of one
// request share Req.
type span struct {
	Start, End int64 // ns since the buffer's epoch
	Req        uint64
	Val        int64 // a size attached to the span (delta bytes)
	ID, Parent uint32
	Name       spanName
	Tag        uint8 // policy index on inproc-policies
}

func (s span) dur() int64 { return s.End - s.Start }

// spanBuf keeps spans in memory until the run ends. Slots are reserved
// with one atomic add, so recording takes no lock; a full buffer drops
// spans and counts them.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{epoch: time.Now(), spans: make([]span, capacity)}
}

// at converts a wall-clock instant to the buffer's time base.
func (b *spanBuf) at(t time.Time) int64 { return int64(t.Sub(b.epoch)) }

// open reserves a slot and returns its span ID, or 0 when the buffer is
// full (put then ignores the span).
func (b *spanBuf) open() uint32 {
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return 0
	}
	return uint32(i + 1)
}

func (b *spanBuf) put(id uint32, s span) {
	if id == 0 {
		return
	}
	s.ID = id
	b.spans[id-1] = s
}

// recorded returns the completed spans. Call only after every recording
// goroutine has finished.
func (b *spanBuf) recorded() []span {
	n := min(b.next.Load(), int64(len(b.spans)))
	out := make([]span, 0, n)
	for _, s := range b.spans[:n] {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Headers carrying the trace context from the client through the router
// to the replica.
const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Parent"
)

func setTraceHeaders(h http.Header, req uint64, parent uint32) {
	h.Set(hdrRequest, strconv.FormatUint(req, 10))
	h.Set(hdrParent, strconv.FormatUint(uint64(parent), 10))
}

// traceHandler wraps next in a timing middleware. Requests that carry a
// trace context get a span named by classify and pass their own span ID
// on as the parent of whatever next calls downstream. Requests without
// one pass through untimed, unless classify names them always (the
// replicas' own delta pushes, which no client starts).
func traceHandler(b *spanBuf, classify func(*http.Request) spanName, always spanName, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := classify(r)
		parentStr := r.Header.Get(hdrParent)
		if parentStr == "" && name != always {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(parentStr, 10, 32)
		req, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
		id := b.open()
		if parentStr != "" {
			r.Header.Set(hdrParent, strconv.FormatUint(uint64(id), 10))
		}
		start := b.at(time.Now())
		next.ServeHTTP(w, r)
		b.put(id, span{Start: start, End: b.at(time.Now()), Req: req, Val: r.ContentLength,
			Parent: uint32(parent), Name: name})
	})
}

// routeOf classifies a serving request by its path.
func routeOf(r *http.Request) (recommend, observe bool) {
	p := r.URL.Path
	return strings.HasSuffix(p, "/recommend"), p == "/v1/observe"
}

// selfTimes returns, index-aligned with spans, each span's duration minus
// the part of its interval that its children cover. Overlapping children
// are counted once, and child time outside the parent is ignored.
func selfTimes(spans []span) []int64 {
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps spans as tab-separated text, one span a line, with
// its self time.
func writeSpans(path string, header string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n", header)
	fmt.Fprintln(w, "id\tparent\treq\tname\ttag\tstart_ns\tend_ns\tself_ns\tval")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s.ID, s.Parent, s.Req, s.Name, s.Tag, s.Start, s.End, self[i], s.Val)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
