package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// windows is how many equal slices each measured phase is cut into.
// Rates, latency quantiles and the within-limit share are computed per
// slice and reported as the median over slices, so one slice disturbed
// by a neighbour on the machine moves the result little.
const windows = 20

// reservoirCap bounds the latency samples kept per worker, phase, slice
// and operation kind. Beyond it, samples are kept by reservoir sampling,
// so memory stays fixed however fast the system runs.
const reservoirCap = 1 << 14

// maxGroups bounds the regret groups (the seven policies on
// inproc-policies, one group elsewhere).
const maxGroups = 8

// regretGroups is a regret tally per group.
type regretGroups [maxGroups]regretSum

func (g *regretGroups) merge(o *regretGroups) {
	for i := range g {
		g[i].regret += o[i].regret
		g[i].best += o[i].best
	}
}

func (g regretGroups) total() regretSum {
	var t regretSum
	for _, s := range g {
		t.regret += s.regret
		t.best += s.best
	}
	return t
}

// latencies holds a uniform sample of latencies in nanoseconds.
type latencies struct {
	vals []uint32
	seen uint64
}

func (l *latencies) add(d time.Duration, rnd *uint64) {
	ns := uint32(min(max(int64(d), 0), math.MaxUint32))
	l.seen++
	if len(l.vals) < cap(l.vals) {
		l.vals = append(l.vals, ns)
		return
	}
	if j := xorshift(rnd) % l.seen; j < uint64(len(l.vals)) {
		l.vals[j] = ns
	}
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// kindWindow is one slice's record of one operation kind.
type kindWindow struct {
	lat                 latencies
	ok, failed, inLimit uint64
}

// regretSum accumulates the paper's quality measure over redeemed ops:
// the chosen arm's pre-sampled runtime minus the best arm's, and the
// best arm's runtime.
type regretSum struct{ regret, best float64 }

func (r *regretSum) add(runtimes []float64, arm int) {
	best := slices.Min(runtimes)
	r.regret += runtimes[arm] - best
	r.best += best
}

func (r regretSum) ratio() float64 {
	if r.best == 0 {
		return 0
	}
	return r.regret / r.best
}

// phaseRec is one worker's record of one measured phase.
type phaseRec struct {
	rec, obs [windows]kindWindow
	genLate  latencies // open loop: how late the generator woke for an op
	rnd      uint64
}

func newPhaseRec(seed uint64, capacity int) *phaseRec {
	p := &phaseRec{rnd: seed | 1}
	for i := range p.rec {
		p.rec[i].lat.vals = make([]uint32, 0, capacity)
		p.obs[i].lat.vals = make([]uint32, 0, capacity)
	}
	p.genLate.vals = make([]uint32, 0, capacity)
	return p
}

// recommend records one recommend's outcome; limit is the workload's
// latency limit.
func (p *phaseRec) recommend(win int, d time.Duration, ok bool, limit time.Duration) {
	k := &p.rec[win]
	if !ok {
		k.failed++
		return
	}
	k.ok++
	k.lat.add(d, &p.rnd)
	if d <= limit {
		k.inLimit++
	}
}

func (p *phaseRec) observe(win int, d time.Duration, ok bool) {
	k := &p.obs[win]
	if !ok {
		k.failed++
		return
	}
	k.ok++
	k.lat.add(d, &p.rnd)
}

// schedule splits a run into a warm-up and one or two measured phases:
// phase 0 untraced, phase 1 traced (traced runs only).
type schedule struct {
	start   time.Time
	warm    time.Duration
	measure time.Duration // per phase
	phases  int
}

func (s schedule) end() time.Time {
	return s.start.Add(s.warm + time.Duration(s.phases)*s.measure)
}

func (s schedule) phaseStart(ph int) time.Time {
	return s.start.Add(s.warm + time.Duration(ph)*s.measure)
}

// at places t in the schedule: phase -1 is the warm-up, phase == phases
// is past the end; win is the slice within a measured phase.
func (s schedule) at(t time.Time) (phase, win int) {
	off := t.Sub(s.start) - s.warm
	if off < 0 {
		return -1, 0
	}
	phase = int(off / s.measure)
	if phase >= s.phases {
		return s.phases, 0
	}
	win = int((off - time.Duration(phase)*s.measure) * windows / s.measure)
	return phase, min(win, windows-1)
}

// phaseSummary is the merged record of all workers in one phase.
type phaseSummary struct {
	throughput                     float64 // ops/s, median over slices
	recP50, recP99, obsP50, obsP99 float64 // µs, median over slices
	withinLimit                    float64 // median over slices
	recN, obsN                     uint64  // latency samples (successful ops)
	attempted, failed              uint64
	genLateP99                     float64 // µs
	steal                          float64 // median share of CPU time stolen per slice
}

func (s phaseSummary) ops() uint64 { return s.recN + s.obsN }

// quietSlices is how many slices of a phase the latency metrics and the
// within-limit share come from: those in which the hypervisor stole the
// least CPU time from the machine.
const quietSlices = windows / 4

// summarize merges the workers' records of one phase. steal holds each
// slice's share of CPU time the hypervisor gave to other machines (nil
// where unknown). Latency quantiles and the within-limit share are the
// median over the quietSlices slices with the least steal. With
// correctRate (closed loops), each slice's rate counts only the CPU time
// left to the machine, ops / (slice seconds × (1 − steal)): a closed loop
// that keeps every CPU busy completes work in proportion to that time.
// An open loop's rate is fixed by its schedule and is not corrected.
func summarize(recs []*phaseRec, measure time.Duration, steal *[windows]float64, correctRate bool) phaseSummary {
	var out phaseSummary
	winSec := measure.Seconds() / windows
	var stealOf [windows]float64
	if steal != nil {
		stealOf = *steal
	}
	quiet := make([]int, windows)
	for w := range quiet {
		quiet[w] = w
	}
	if steal != nil {
		slices.SortStableFunc(quiet, func(a, b int) int { return cmp.Compare(stealOf[a], stealOf[b]) })
		quiet = quiet[:quietSlices]
	}
	var tput, rp50, rp99, op50, op99, within, stolen []float64
	for w := 0; w < windows; w++ {
		var okOps uint64
		for _, p := range recs {
			r, o := &p.rec[w], &p.obs[w]
			okOps += r.ok + o.ok
			out.recN += r.ok
			out.obsN += o.ok
			out.attempted += r.ok + r.failed + o.ok + o.failed
			out.failed += r.failed + o.failed
		}
		avail := 1.0
		if correctRate {
			avail = 1 - min(stealOf[w], 0.9)
		}
		tput = append(tput, float64(okOps)/(winSec*avail))
		stolen = append(stolen, stealOf[w])
	}
	for _, w := range quiet {
		var rl, ol []uint32
		var rAll, rIn uint64
		for _, p := range recs {
			r, o := &p.rec[w], &p.obs[w]
			rl = append(rl, r.lat.vals...)
			ol = append(ol, o.lat.vals...)
			rAll += r.ok + r.failed
			rIn += r.inLimit
		}
		if len(rl) > 0 {
			rp50 = append(rp50, quantile(rl, 0.5)/1e3)
			rp99 = append(rp99, quantile(rl, 0.99)/1e3)
		}
		if len(ol) > 0 {
			op50 = append(op50, quantile(ol, 0.5)/1e3)
			op99 = append(op99, quantile(ol, 0.99)/1e3)
		}
		if rAll > 0 {
			within = append(within, float64(rIn)/float64(rAll))
		}
	}
	var late []uint32
	for _, p := range recs {
		late = append(late, p.genLate.vals...)
	}
	out.throughput = median(tput)
	out.recP50, out.recP99 = median(rp50), median(rp99)
	out.obsP50, out.obsP99 = median(op50), median(op99)
	out.withinLimit = median(within)
	out.steal = median(stolen)
	out.genLateP99 = quantile(late, 0.99) / 1e3
	return out
}

// quantile returns the q-quantile of vals (sorting them in place) with
// linear interpolation between order statistics; 0 for no samples.
func quantile[T uint32 | int64 | float64](vals []T, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return float64(vals[len(vals)-1])
	}
	frac := pos - float64(lo)
	return float64(vals[lo])*(1-frac) + float64(vals[lo+1])*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }
