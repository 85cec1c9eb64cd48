package serve

import "banditware/internal/schema"

// The serving primitives.
//
// RecommendInto, RecommendCtxInto and ObserveSeq are the request path:
// the caller owns one Ticket and hands it back every call (its
// Predicted backing array is reused), the ticket identity travels as
// the integer Seq, and observes key by (stream, seq). On a warmed
// stream the full RecommendInto → ObserveSeq cycle allocates nothing
// (pinned by alloc_test.go).
//
// The ticket forms built on them wrap them: Recommend and RecommendCtx
// issue into a fresh Ticket and render its ID, ObserveOutcome parses an
// ID into (stream, seq) and redeems it as ObserveSeq does, and Observe
// maps a bare runtime to the default Outcome. The HTTP batch routes
// call recommendBatch and observeBatch, which take one stream's lock
// once and run the same issueLocked and observeTicketLocked per item.
// ObserveDirectOutcome and the HTTP direct observe share observeDirect,
// which trains on a caller-tracked arm without a ticket. A ticket from
// any recommend form redeems through any observe form.

// RecommendInto issues a decision ticket into a caller-reused Ticket:
// every field is (re)set, t.Predicted's backing array is reused, and
// the ID string is not rendered — t.ID is "" and t.Seq carries the
// ticket identity for ObserveSeq. Callers that need the string ID use
// Recommend.
func (s *Service) RecommendInto(name string, x []float64, t *Ticket) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.issueLocked(s.now(), x, t)
}

// RecommendCtxInto is RecommendInto for a named context: the context is
// validated and encoded against the stream's schema into a
// stream-retained scratch buffer, then served exactly like
// RecommendInto.
func (s *Service) RecommendCtxInto(name string, ctx schema.Context, t *Ticket) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	x, err := st.encodeLocked(ctx)
	if err != nil {
		return err
	}
	return st.issueLocked(s.now(), x, t)
}

// ObserveSeq redeems a ticket by its sequence number (Ticket.Seq) with a
// bare runtime, mapped to the default Outcome. The outcome is validated
// before the ticket is resolved, and each ticket redeems exactly once.
func (s *Service) ObserveSeq(name string, seq uint64, runtime float64) error {
	o := Outcome{Runtime: runtime}
	if err := validateOutcome(o); err != nil {
		return err
	}
	return s.redeem(name, seq, o)
}

// redeem resolves the named stream and redeems ticket seq with o. Every
// caller has already validated o at its public entry point.
func (s *Service) redeem(name string, seq uint64, o Outcome) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.observeTicketLocked(s.now(), seq, o)
}

// Close releases nothing and always returns nil: every observe applies
// synchronously, so there is no background work to stop. It stays so
// callers that close their service when done keep compiling.
func (s *Service) Close() error { return nil }
