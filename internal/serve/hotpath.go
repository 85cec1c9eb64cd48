package serve

import "banditware/internal/schema"

// Zero-allocation serving API.
//
// The classic Recommend/Observe pair allocates per call by contract: a
// fresh Ticket with its own Predicted slice and a rendered ID string.
// The *Into / *Seq variants below keep those contracts out of the hot
// path: the caller owns one Ticket and hands it back every call (its
// Predicted backing array is reused), the ticket identity travels as
// the integer Seq instead of a formatted string, and observes key by
// (stream, seq) directly. On a warmed stream the full
// RecommendInto → ObserveSeq cycle allocates nothing
// (pinned by alloc_test.go).
//
// The two APIs are interchangeable mid-stream: RecommendInto consumes
// exploration randomness exactly like Recommend, and a ticket issued by
// either can be redeemed by ObserveOutcome (by ID) or ObserveSeqOutcome
// (by Seq — every tracked Ticket carries it).

// RecommendInto is Recommend writing into a caller-reused Ticket: every
// field is (re)set, t.Predicted's backing array is reused, and the ID
// string is not rendered — t.ID is "" and t.Seq carries the ticket
// identity for ObserveSeq. Callers that need the string ID use
// Recommend.
func (s *Service) RecommendInto(name string, x []float64, t *Ticket) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recommendIntoLocked(s.now(), x, t, true, false)
}

// RecommendCtxInto is RecommendCtx writing into a caller-reused Ticket:
// the context is validated and encoded by the stream's compiled encoder
// into a stream-retained scratch buffer, then served exactly like
// RecommendInto.
func (s *Service) RecommendCtxInto(name string, ctx schema.Context, t *Ticket) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	x, err := st.enc.EncodeInto(ctx, st.encScratch[:0])
	if err != nil {
		return err
	}
	st.encScratch = x
	return st.recommendIntoLocked(s.now(), x, t, true, false)
}

// ObserveSeqOutcome redeems a ticket by its sequence number (Ticket.Seq)
// — ObserveOutcome without the ID round-trip. Semantics are identical:
// the outcome is validated before the ticket is resolved, and each
// ticket redeems exactly once.
func (s *Service) ObserveSeqOutcome(name string, seq uint64, o Outcome) error {
	if err := validateOutcome(o); err != nil {
		return err
	}
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.observeTicketLocked(s.now(), "", seq, o)
}

// ObserveSeq redeems a ticket by sequence number with a bare runtime —
// ObserveSeqOutcome with the scalar mapped to the default Outcome.
func (s *Service) ObserveSeq(name string, seq uint64, runtime float64) error {
	return s.ObserveSeqOutcome(name, seq, Outcome{Runtime: runtime})
}

// Close releases nothing and always returns nil: every observe applies
// synchronously, so there is no background work to stop. It stays so
// callers that close their service when done keep compiling.
func (s *Service) Close() error { return nil }
