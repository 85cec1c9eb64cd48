package serve

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"banditware/internal/core"
)

// mkPending issues ticket seq on arm 0 at time at, with the seq as its
// one feature so a take can be checked against the ticket it redeemed.
func mkPending(l *ledger, seq uint64, at time.Time) {
	l.add(seq, 0, []float64{float64(seq)}, nil, at)
}

// take redeems a ticket whose observation is accepted: find, then
// redeemed. The returned features alias the freed slot, readable until
// the next add or restore.
func (l *ledger) take(seq uint64, now time.Time) (arm int, x []float64, shadowArms map[string]int, err error) {
	i, err := l.find(seq, now)
	if err != nil {
		return 0, nil, nil, err
	}
	arm, x, shadowArms = int(l.slots[i].arm), l.features(i), l.shadowOf(i)
	l.redeemed(i, now)
	return arm, x, shadowArms, nil
}

func TestLedgerTakeOnce(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLedger(4, 0, 1)
	mkPending(l, 1, now)
	arm, x, _, err := l.take(1, now)
	if err != nil || arm != 0 || len(x) != 1 || x[0] != 1 {
		t.Fatalf("take: arm %d features %v, %v", arm, x, err)
	}
	if _, _, _, err := l.take(1, now); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("second take: %v, want ErrTicketNotFound", err)
	}
	if _, _, _, err := l.take(999, now); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("unknown take: %v, want ErrTicketNotFound", err)
	}
}

func TestLedgerEvictsOldestFirst(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLedger(2, 0, 1)
	mkPending(l, 1, now)
	mkPending(l, 2, now)
	mkPending(l, 3, now) // evicts seq 1
	if l.evicted != 1 {
		t.Fatalf("evicted = %d, want 1", l.evicted)
	}
	if _, _, _, err := l.take(1, now); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("evicted ticket still takeable: %v", err)
	}
	if _, _, _, err := l.take(2, now); err != nil {
		t.Fatalf("seq 2 should survive: %v", err)
	}
	if _, _, _, err := l.take(3, now); err != nil {
		t.Fatalf("seq 3 should survive: %v", err)
	}
}

func TestLedgerExpiry(t *testing.T) {
	start := time.Unix(1000, 0)
	l := newLedger(10, time.Minute, 1)
	mkPending(l, 1, start)
	mkPending(l, 2, start.Add(30*time.Second))

	// Within TTL: both takeable.
	if _, _, _, err := l.take(1, start.Add(time.Minute)); err != nil {
		t.Fatalf("fresh ticket expired early: %v", err)
	}
	mkPending(l, 3, start) // re-add an old-timestamped one

	// Past seq 3's TTL but within seq 2's: take reports expiry explicitly.
	late := start.Add(2 * time.Minute)
	if _, _, _, err := l.take(3, late); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("take on expired = %v, want ErrTicketExpired", err)
	}
	// Seq 2 expired too (issued at +30s, TTL 1m, now +2m) — the sweep on
	// the next add drops it.
	mkPending(l, 4, late)
	if _, _, _, err := l.take(2, late); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("swept ticket = %v, want ErrTicketNotFound", err)
	}
	if l.expired != 2 {
		t.Fatalf("expired = %d, want 2", l.expired)
	}
	if l.len() != 1 {
		t.Fatalf("len = %d, want 1 (only seq 4)", l.len())
	}
}

func TestLedgerZeroTTLNeverExpires(t *testing.T) {
	start := time.Unix(1000, 0)
	l := newLedger(10, 0, 1)
	mkPending(l, 1, start)
	if _, _, _, err := l.take(1, start.Add(1000*time.Hour)); err != nil {
		t.Fatalf("ttl=0 ticket expired: %v", err)
	}
}

func TestLedgerFreelistRecycles(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLedger(4, 0, 3)
	l.add(1, 0, []float64{1, 2, 3}, map[string]int{"sh": 1}, now)
	if _, _, _, err := l.take(1, now); err != nil {
		t.Fatalf("take: %v", err)
	}
	slab, feats := &l.slots[0], &l.feats[0]
	l.add(2, 0, []float64{4, 5, 6}, nil, now)
	if len(l.slots) != 1 || &l.slots[0] != slab || &l.feats[0] != feats {
		t.Fatalf("add after take grew the slab to %d slots, want the freed slot recycled", len(l.slots))
	}
	if got := l.features(0); !slices.Equal(got, []float64{4, 5, 6}) {
		t.Fatalf("recycled features = %v, want [4 5 6]", got)
	}
	if l.shadowOf(0) != nil {
		t.Fatalf("recycled ticket kept shadowArms")
	}
}

// TestLedgerLazyAllocation pins that a ledger costs nothing until its
// first ticket, and that a ledger whose tickets are redeemed promptly
// stays at its first slab size.
func TestLedgerLazyAllocation(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLedger(4096, 0, 2)
	if l.slots != nil || l.feats != nil || l.index != nil || l.shadow != nil {
		t.Fatal("fresh ledger allocated storage")
	}
	x := []float64{1, 2}
	for seq := uint64(0); seq < 10000; seq++ {
		l.add(seq, 1, x, nil, now)
		if seq >= 3 {
			if _, _, _, err := l.take(seq-3, now); err != nil {
				t.Fatalf("take %d: %v", seq-3, err)
			}
		}
	}
	if cap(l.slots) != minSlots || len(l.index) != 2*minSlots || l.shadow != nil {
		t.Fatalf("slab %d slots, index %d entries, shadow %v; want %d, %d, nil",
			cap(l.slots), len(l.index), l.shadow != nil, minSlots, 2*minSlots)
	}
}

// TestLedgerIssuedAtExact pins that a ticket's reported issue time is
// the clock reading it was issued at, to the nanosecond, for times on
// either side of the ledger epoch.
func TestLedgerIssuedAtExact(t *testing.T) {
	l := newLedger(8, 0, 0)
	times := []time.Time{
		time.Unix(9500, 0),
		time.Unix(9499, 999_999_999),
		time.Unix(1_700_000_000, 123_456_789),
		time.Unix(-5, 7),
	}
	for i, at := range times {
		l.add(uint64(i), 0, nil, nil, at)
	}
	l.restore(10, 0, nil, time.Unix(0, 42), nil, time.Now())
	want := append(times, time.Unix(0, 42))
	i := 0
	for p := range l.all {
		if p.issuedAtNS != want[i].UnixNano() {
			t.Fatalf("ticket %d issued_at_ns = %d, want %d", p.seq, p.issuedAtNS, want[i].UnixNano())
		}
		i++
	}
}

// TestLedgerRestoredExtremeTimes pins expiry for restored issue times
// too far from the ledger epoch for a time.Duration: the oldest int64
// nanosecond has expired, the newest has not.
func TestLedgerRestoredExtremeTimes(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	l := newLedger(4, time.Minute, 0)
	l.restore(1, 0, nil, time.Unix(0, math.MinInt64), nil, now)
	l.restore(2, 0, nil, time.Unix(0, math.MaxInt64), nil, now)
	if _, _, _, err := l.take(1, now); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("ancient ticket = %v, want ErrTicketExpired", err)
	}
	if _, _, _, err := l.take(2, now); err != nil {
		t.Fatalf("future ticket = %v, want redeemed", err)
	}
}

// refTicket and refLedger are the reference model of the ledger's
// semantics: a map for membership and an ordered slice for the FIFO.
type refTicket struct {
	seq    uint64
	arm    int
	x      []float64
	at     time.Time
	shadow map[string]int
}

type refLedger struct {
	cap              int
	ttl              time.Duration
	fifo             []refTicket
	live             map[uint64]bool
	evicted, expired uint64
}

func (r *refLedger) stale(p refTicket, now time.Time) bool {
	return r.ttl > 0 && now.Sub(p.at) > r.ttl
}

func (r *refLedger) remove(i int) refTicket {
	p := r.fifo[i]
	r.fifo = slices.Delete(r.fifo, i, i+1)
	delete(r.live, p.seq)
	return p
}

func (r *refLedger) sweep(now time.Time) {
	for len(r.fifo) > 0 && r.stale(r.fifo[0], now) {
		r.remove(0)
		r.expired++
	}
}

func (r *refLedger) add(p refTicket, now time.Time) {
	r.sweep(now)
	for len(r.fifo) >= r.cap {
		r.remove(0)
		r.evicted++
	}
	r.fifo = append(r.fifo, p)
	r.live[p.seq] = true
}

func (r *refLedger) take(seq uint64, now time.Time) (refTicket, error) {
	i := slices.IndexFunc(r.fifo, func(p refTicket) bool { return p.seq == seq })
	if i < 0 {
		r.sweep(now)
		return refTicket{}, ErrTicketNotFound
	}
	p := r.remove(i)
	r.sweep(now)
	if r.stale(p, now) {
		r.expired++
		return refTicket{}, ErrTicketExpired
	}
	return p, nil
}

func (r *refLedger) retireArm(arm int) {
	kept := r.fifo[:0]
	for _, p := range r.fifo {
		if p.arm == arm {
			delete(r.live, p.seq)
			r.evicted++
			continue
		}
		if p.arm > arm {
			p.arm--
		}
		for name, a := range p.shadow {
			if a == arm {
				delete(p.shadow, name)
			} else if a > arm {
				p.shadow[name] = a - 1
			}
		}
		kept = append(kept, p)
	}
	r.fifo = kept
}

// checkLedger compares l with the reference model and checks the seq
// index's invariants: it holds exactly the pending slots, each one
// reachable from its home position without crossing an empty entry.
func checkLedger(t *testing.T, step int, l *ledger, r *refLedger) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if l.len() != len(r.fifo) || l.evicted != r.evicted || l.expired != r.expired {
		fail("len/evicted/expired = %d/%d/%d, reference %d/%d/%d",
			l.len(), l.evicted, l.expired, len(r.fifo), r.evicted, r.expired)
	}
	i := 0
	for p := range l.all {
		want := r.fifo[i]
		if p.seq != want.seq || p.arm != want.arm || !slices.Equal(p.features, want.x) ||
			p.issuedAtNS != want.at.UnixNano() || !maps.Equal(p.shadowArms, want.shadow) {
			fail("ticket %d = %+v, reference %+v", i, p, want)
		}
		i++
	}
	if len(l.index) > 0 && 2*l.len() > len(l.index) {
		fail("index load %d/%d above 1/2", l.len(), len(l.index))
	}
	entries := 0
	mask := len(l.index) - 1
	for pos, e := range l.index {
		if e == 0 {
			continue
		}
		entries++
		seq := l.slots[e-1].seq
		if !r.live[seq] {
			fail("index holds seq %d, which is not pending", seq)
		}
		home := l.home(seq)
		for p := home; p != pos; p = (p + 1) & mask {
			if l.index[p] == 0 {
				fail("seq %d at index %d is cut off from its home %d", seq, pos, home)
			}
		}
	}
	if entries != l.len() {
		fail("index holds %d entries for %d pending tickets", entries, l.len())
	}
}

// collidingSeqs returns n increasing seqs above from whose index home
// positions all equal that of from, for an index of size 1<<logSize.
func collidingSeqs(from uint64, logSize, n int) []uint64 {
	probe := ledger{logSize: uint8(logSize)}
	home := probe.home(from)
	var out []uint64
	for s := from + 1; len(out) < n; s++ {
		if probe.home(s) == home {
			out = append(out, s)
		}
	}
	return out
}

// TestLedgerMatchesReference drives the ledger and the reference model
// through the same random sequences of issue, take, re-take, TTL sweep
// (issue times may step backwards), arm retirement, snapshot restore
// and shadow detach, and compares them after every step. The seq
// stream mixes consecutive seqs with gaps of exactly the index size and
// runs of seqs that share one home position, and some tickets are kept
// pending while more than an index's worth of newer ones pass, so
// backward-shift deletion runs across collisions and wrap-around.
func TestLedgerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rnd := rand.New(rand.NewPCG(seed, 17))
			capacity := 1 + rnd.IntN(48)
			var ttl time.Duration
			if rnd.IntN(3) > 0 {
				ttl = time.Duration(5+rnd.IntN(60)) * time.Second
			}
			const dim, arms = 2, 4
			l := newLedger(capacity, ttl, dim)
			r := &refLedger{cap: capacity, ttl: ttl, live: map[uint64]bool{}}
			now := time.Unix(9500, 0)
			next := uint64(rnd.IntN(3))
			var issued []uint64 // every seq issued, for takes of stale ones
			var colliding []uint64
			shadowNames := []string{"a", "b", "c"}
			for step := 0; step < 3000; step++ {
				switch op := rnd.IntN(100); {
				case op < 45: // issue
					switch g := rnd.IntN(10); {
					case g == 0 && len(l.index) > 0:
						next += uint64(len(l.index))
					case g == 1 && len(l.index) > 0:
						colliding = collidingSeqs(next, log2(len(l.index)), 1+rnd.IntN(6))
					}
					seq := next
					if len(colliding) > 0 {
						seq, colliding = colliding[0], colliding[1:]
					}
					next = seq + 1
					x := []float64{float64(seq), rnd.Float64()}
					var sh map[string]int
					if rnd.IntN(4) == 0 {
						sh = map[string]int{}
						for _, n := range shadowNames[:1+rnd.IntN(3)] {
							sh[n] = rnd.IntN(arms)
						}
					}
					arm := rnd.IntN(arms)
					l.add(seq, arm, x, sh, now)
					r.add(refTicket{seq: seq, arm: arm, x: slices.Clone(x), at: now, shadow: maps.Clone(sh)}, now)
					issued = append(issued, seq)
				case op < 80 && len(issued) > 0: // take (or re-take) a recent or a straggler seq
					var seq uint64
					if rnd.IntN(4) == 0 {
						seq = issued[rnd.IntN(len(issued))]
					} else {
						seq = issued[len(issued)-1-rnd.IntN(min(len(issued), 8))]
					}
					arm, x, sh, err := l.take(seq, now)
					want, werr := r.take(seq, now)
					if !errors.Is(err, werr) && err != werr {
						t.Fatalf("step %d: take %d = %v, reference %v", step, seq, err, werr)
					}
					if err == nil && (arm != want.arm || !slices.Equal(x, want.x) || !maps.Equal(sh, want.shadow)) {
						t.Fatalf("step %d: take %d = arm %d %v %v, reference %+v", step, seq, arm, x, sh, want)
					}
				case op < 90: // the clock moves, sometimes backwards
					now = now.Add(time.Duration(rnd.IntN(4000)-500) * time.Millisecond)
				case op < 93:
					arm := rnd.IntN(arms)
					l.retireArm(arm)
					r.retireArm(arm)
				case op < 96:
					name := shadowNames[rnd.IntN(len(shadowNames))]
					l.detachShadow(name)
					for _, p := range r.fifo {
						delete(p.shadow, name)
					}
				default: // save and restore into a fresh ledger
					fresh := newLedger(capacity, ttl, dim)
					for p := range l.all {
						fresh.restore(p.seq, p.arm, slices.Clone(p.features), time.Unix(0, p.issuedAtNS), maps.Clone(p.shadowArms), now)
					}
					fresh.evicted, fresh.expired = l.evicted, l.expired
					l = fresh
				}
				checkLedger(t, step, l, r)
			}
		})
	}
}

// log2 returns log2 of the power of two n.
func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// BenchmarkRecommendObserveFullLedger times one RecommendInto, and on
// every second op an ObserveSeq of the ticket just issued, over 64
// streams whose ledgers are full at the default capacity: the shape of
// perfbench's inproc-policies, where every unredeemed ticket stays
// pending until a newer one evicts it. Each recommend evicts the
// oldest ticket of its stream.
func BenchmarkRecommendObserveFullLedger(b *testing.B) {
	const streams = 64
	s := NewService(ServiceOptions{})
	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		if err := s.CreateStream(names[i], StreamConfig{
			Hardware: testHW(), Dim: 1, Options: core.Options{Seed: uint64(i + 1)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	x := []float64{1.5}
	var tk Ticket
	op := func(i int) {
		name := names[i%streams]
		if err := s.RecommendInto(name, x, &tk); err != nil {
			b.Fatal(err)
		}
		if i/streams%2 == 0 {
			if err := s.ObserveSeq(name, tk.Seq, 2.0+float64(tk.Arm)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 2*streams*defaultMaxPending; i++ {
		op(i)
	}
	if info, err := s.StreamInfo(names[0]); err != nil || info.Pending != defaultMaxPending {
		b.Fatalf("pending %d (%v), want a full ledger of %d", info.Pending, err, defaultMaxPending)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
