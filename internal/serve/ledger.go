package serve

import (
	"math/bits"
	"time"
)

// slot is one issued-but-unobserved recommendation held in a stream's
// ledger: everything needed to complete the observation later without
// the client echoing its features back. The features live in the
// ledger's flat feats slab at the slot's index, and the per-shadow arm
// selections (if any) in its shadow side slice, so a slot holds no
// pointer and the slab is invisible to the garbage collector's scan.
//
// The ticket-ID string is not stored: the key is the sequence number,
// and the ID is re-rendered from (stream, seq) only where a string is
// needed (snapshots, error messages).
type slot struct {
	seq        uint64
	at         int64 // issue time, nanoseconds since the ledger epoch
	arm        int32
	prev, next int32 // FIFO links (noSlot = none); next also chains the freelist
}

// noSlot is the nil slot index of the FIFO links and the freelist.
const noSlot = -1

// minSlots is the slab's first allocation: a stream whose tickets are
// redeemed promptly never holds more than a handful at once.
const minSlots = 4

// seqHashMul is the 64-bit golden-ratio multiplier of the seq index's
// Fibonacci hash. Sequence numbers are consecutive, and the identity
// hash would pack every pending ticket into one probe run that each
// deletion's backward shift walks end to end.
const seqHashMul = 0x9E3779B97F4A7C15

// ledger is the bounded pending-decision ledger of one stream. Issue and
// completion of a recommendation are decoupled in real deployments — a
// workflow's runtime arrives minutes or hours after the hardware choice —
// so every tracked Recommend deposits a ticket here and Observe redeems
// it. The ledger is bounded two ways:
//
//   - capacity: when a stream holds cap pending tickets, issuing another
//     evicts the oldest (clients that never report runtimes cannot grow
//     memory without bound);
//   - ttl: tickets older than ttl expire and can no longer be redeemed
//     (a runtime observed hours late would describe a model revision that
//     no longer exists).
//
// Expiry is lazy: expired tickets are dropped from the front of the FIFO
// by the next issue or take, and by every read of the pending set
// (StreamInfo, Stats, Save), so those never report a dead ticket. A
// ticket can be taken once.
//
// Storage is a slab of pointer-free slots linked into a FIFO (oldest
// first) and a freelist by int32 index, the features in one flat slice
// with stride dim, and a seq → slot index open-addressed over a
// power-of-two table at load ≤ ½ (linear probing, backward-shift
// deletion, so it never holds tombstones). Nothing is allocated until
// the first ticket; the slab and the index then double up to cap, and
// the steady-state issue/observe cycle allocates nothing. The ledger is
// not goroutine-safe; the owning stream's mutex guards it.
type ledger struct {
	cap     int           // max pending tickets; > 0 always
	ttl     time.Duration // 0 = tickets never expire
	dim     int           // features per ticket: the stride of feats
	evicted uint64
	expired uint64

	// epoch is the first clock reading the ledger saw (stamped is set
	// once it is); a slot's at is its offset from it, so ages of live
	// tickets use the monotonic clock whenever the service clock
	// carries one.
	epoch time.Time

	slots  []slot
	feats  []float64        // len(slots)*dim
	shadow []map[string]int // per slot; nil until a ticket carries shadow arms
	index  []int32          // slot+1 per entry, 0 = empty; len is 1<<logSize

	n          int   // pending tickets
	head, tail int32 // oldest and newest pending ticket
	free       int32 // freelist of unused slots, chained via next
	logSize    uint8
	stamped    bool
}

func newLedger(capacity int, ttl time.Duration, dim int) *ledger {
	if capacity <= 0 {
		capacity = defaultMaxPending
	}
	return &ledger{cap: capacity, ttl: ttl, dim: dim, head: noSlot, tail: noSlot, free: noSlot}
}

func (l *ledger) len() int { return l.n }

// stamp returns t as an offset from the ledger epoch, fixing the epoch
// at now on first use.
func (l *ledger) stamp(t, now time.Time) int64 {
	if !l.stamped {
		l.epoch, l.stamped = now, true
	}
	return int64(t.Sub(l.epoch))
}

// expiredBy reports whether slot i is older than the ttl at now. It
// compares offsets rather than subtracting them, so a restored issue
// time too far from the epoch for a Duration (saturated by stamp)
// still ages correctly.
func (l *ledger) expiredBy(i int32, now time.Time) bool {
	return l.ttl > 0 && l.slots[i].at < int64(now.Sub(l.epoch))-int64(l.ttl)
}

// features returns slot i's feature row.
func (l *ledger) features(i int32) []float64 {
	lo := int(i) * l.dim
	return l.feats[lo : lo+l.dim : lo+l.dim]
}

// home is seq's first probe position in the index.
func (l *ledger) home(seq uint64) int {
	return int((seq * seqHashMul) >> (64 - l.logSize))
}

// lookup returns the slot holding seq, or noSlot.
func (l *ledger) lookup(seq uint64) int32 {
	if l.n == 0 {
		return noSlot
	}
	mask := len(l.index) - 1
	for p := l.home(seq); ; p = (p + 1) & mask {
		e := l.index[p]
		if e == 0 {
			return noSlot
		}
		if l.slots[e-1].seq == seq {
			return e - 1
		}
	}
}

// indexInsert adds slot i under its seq. The index always has a free
// entry: its load is at most ½.
func (l *ledger) indexInsert(i int32) {
	mask := len(l.index) - 1
	p := l.home(l.slots[i].seq)
	for l.index[p] != 0 {
		p = (p + 1) & mask
	}
	l.index[p] = i + 1
}

// indexDelete removes slot i from the index by backward-shift deletion:
// every later entry of the probe run that may move into the hole does,
// so lookups never need tombstones.
func (l *ledger) indexDelete(i int32) {
	mask := len(l.index) - 1
	hole := l.home(l.slots[i].seq)
	for l.index[hole] != i+1 {
		hole = (hole + 1) & mask
	}
	for p := (hole + 1) & mask; ; p = (p + 1) & mask {
		e := l.index[p]
		if e == 0 {
			break
		}
		// The entry at p may fill the hole unless its home lies
		// cyclically in (hole, p].
		if (p-l.home(l.slots[e-1].seq))&mask >= (p-hole)&mask {
			l.index[hole] = e
			hole = p
		}
	}
	l.index[hole] = 0
}

// alloc returns an unused slot, growing the slab (and the index with it)
// when the freelist is empty. Callers keep n < cap.
func (l *ledger) alloc() int32 {
	if i := l.free; i != noSlot {
		l.free = l.slots[i].next
		return i
	}
	if len(l.slots) == cap(l.slots) {
		l.grow(min(max(2*len(l.slots), minSlots), l.cap))
	}
	i := int32(len(l.slots))
	l.slots = l.slots[:i+1]
	l.feats = l.feats[:int(i+1)*l.dim]
	if l.shadow != nil {
		l.shadow = l.shadow[:i+1]
	}
	return i
}

// grow reallocates the slab for size slots and rebuilds the index at
// twice that size, rounded up to a power of two.
func (l *ledger) grow(size int) {
	slots := make([]slot, len(l.slots), size)
	copy(slots, l.slots)
	l.slots = slots
	feats := make([]float64, len(l.feats), size*l.dim)
	copy(feats, l.feats)
	l.feats = feats
	if l.shadow != nil {
		shadow := make([]map[string]int, len(l.shadow), size)
		copy(shadow, l.shadow)
		l.shadow = shadow
	}
	l.logSize = uint8(bits.Len(uint(2*size - 1)))
	l.index = make([]int32, 1<<l.logSize)
	for i := l.head; i != noSlot; i = l.slots[i].next {
		l.indexInsert(i)
	}
}

// setShadow records slot i's shadow selections, allocating the side
// slice on first use.
func (l *ledger) setShadow(i int32, arms map[string]int) {
	if arms == nil && l.shadow == nil {
		return
	}
	if l.shadow == nil {
		l.shadow = make([]map[string]int, len(l.slots), cap(l.slots))
	}
	l.shadow[i] = arms
}

// shadowOf returns slot i's shadow selections (nil when none).
func (l *ledger) shadowOf(i int32) map[string]int {
	if l.shadow == nil {
		return nil
	}
	return l.shadow[i]
}

// link appends slot i as the newest FIFO entry and indexes it.
func (l *ledger) link(i int32) {
	s := &l.slots[i]
	s.prev, s.next = l.tail, noSlot
	if l.tail != noSlot {
		l.slots[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.indexInsert(i)
	l.n++
}

// drop removes slot i from the FIFO and the index, forgets its shadow
// selections and returns it to the freelist. Its seq, arm, time and
// features stay readable until the next alloc hands the slot out again.
func (l *ledger) drop(i int32) {
	l.indexDelete(i)
	s := &l.slots[i]
	if s.prev != noSlot {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next != noSlot {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next = noSlot, l.free
	l.free = i
	l.n--
	if l.shadow != nil {
		l.shadow[i] = nil
	}
}

// sweep drops expired tickets. Tickets are issued in time order, so only
// the front of the FIFO can be stale; stop at the first fresh one.
func (l *ledger) sweep(now time.Time) {
	if l.ttl <= 0 {
		return
	}
	for l.head != noSlot && l.expiredBy(l.head, now) {
		l.drop(l.head)
		l.expired++
	}
}

// add deposits a freshly issued ticket, evicting the oldest pending
// tickets if the ledger is at capacity. x is copied (len(x) must be the
// ledger's dim); shadowArms is kept as given.
func (l *ledger) add(seq uint64, arm int, x []float64, shadowArms map[string]int, now time.Time) {
	l.sweep(now)
	for l.n >= l.cap {
		l.drop(l.head)
		l.evicted++
	}
	l.put(seq, arm, x, l.stamp(now, now), shadowArms)
}

// put fills a fresh slot and links it as the newest ticket.
func (l *ledger) put(seq uint64, arm int, x []float64, at int64, shadowArms map[string]int) {
	i := l.alloc()
	s := &l.slots[i]
	s.seq, s.at, s.arm = seq, at, int32(arm)
	copy(l.features(i), x)
	l.setShadow(i, shadowArms)
	l.link(i)
}

// find resolves a ticket for redemption without removing it: a ticket
// that was never issued, was already redeemed or was evicted reports
// ErrTicketNotFound, and one past the ttl is dropped and reports
// ErrTicketExpired. The caller reads the slot's arm, features and shadow
// selections, and removes it with redeemed only once its observation is
// accepted, so a refused observation leaves the ticket pending.
func (l *ledger) find(seq uint64, now time.Time) (int32, error) {
	// Look up before sweeping so redeeming an expired ticket reports
	// ErrTicketExpired rather than being swept into ErrTicketNotFound.
	i := l.lookup(seq)
	if i == noSlot {
		l.sweep(now)
		return noSlot, ErrTicketNotFound
	}
	if l.expiredBy(i, now) {
		l.drop(i)
		l.sweep(now)
		l.expired++
		return noSlot, ErrTicketExpired
	}
	return i, nil
}

// redeemed removes slot i, resolved by find, once its observation has
// been applied: the ticket cannot be redeemed again.
func (l *ledger) redeemed(i int32, now time.Time) {
	l.drop(i)
	l.sweep(now)
}

// restore re-inserts a ticket during snapshot load, bypassing eviction
// and expiry (the snapshot already reflects both). Callers restore in
// seq order, never more than cap tickets, each seq once, with len(x)
// equal to the ledger's dim; now fixes the epoch of a fresh ledger.
func (l *ledger) restore(seq uint64, arm int, x []float64, issuedAt time.Time, shadowArms map[string]int, now time.Time) {
	l.put(seq, arm, x, l.stamp(issuedAt, now), shadowArms)
}

// retireArm drops every pending ticket on the retired arm (its runtime
// can no longer train anything — the estimator is gone) and shifts the
// arm indices of every later-arm ticket and shadow selection down by
// one, keeping the ledger aligned with the spliced arm set.
func (l *ledger) retireArm(arm int) {
	for i := l.head; i != noSlot; {
		s := &l.slots[i]
		next := s.next
		if int(s.arm) == arm {
			l.drop(i)
			l.evicted++
			i = next
			continue
		}
		if int(s.arm) > arm {
			s.arm--
		}
		for name, a := range l.shadowOf(i) {
			if a == arm {
				delete(l.shadow[i], name)
			} else if a > arm {
				l.shadow[i][name] = a - 1
			}
		}
		i = next
	}
}

// detachShadow forgets a detached shadow's selections on every pending
// ticket, so a future shadow reusing the name is never credited with
// them.
func (l *ledger) detachShadow(name string) {
	for i := l.head; i != noSlot; i = l.slots[i].next {
		delete(l.shadowOf(i), name)
	}
}

// pendingEntry is one pending ticket as the ledger reports it. features
// and shadowArms alias ledger storage: copy what is kept past the
// stream lock.
type pendingEntry struct {
	seq        uint64
	arm        int
	features   []float64
	issuedAtNS int64
	shadowArms map[string]int
}

// all yields the pending tickets oldest-first.
func (l *ledger) all(yield func(pendingEntry) bool) {
	for i := l.head; i != noSlot; i = l.slots[i].next {
		s := &l.slots[i]
		if !yield(pendingEntry{
			seq:        s.seq,
			arm:        int(s.arm),
			features:   l.features(i),
			issuedAtNS: l.epoch.Add(time.Duration(s.at)).UnixNano(),
			shadowArms: l.shadowOf(i),
		}) {
			return
		}
	}
}
