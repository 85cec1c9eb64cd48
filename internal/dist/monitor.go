package dist

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// defaultPollInterval is how often the Monitor re-probes members when
// the caller does not say.
const defaultPollInterval = 2 * time.Second

// probeTimeout bounds a readiness probe: a probe that takes seconds is a
// failure in itself.
const probeTimeout = 2 * time.Second

// MemberState is one member's last observed health.
type MemberState struct {
	URL string `json:"url"`
	// Ready mirrors the member's GET /v1/readyz: true only when the
	// probe returned 200 (alive and not mid-restore).
	Ready bool `json:"ready"`
	// Error is the last probe failure ("" when Ready; an HTTP status or
	// transport error otherwise).
	Error       string    `json:"error,omitempty"`
	LastChecked time.Time `json:"last_checked"`
}

// Monitor maintains a readiness view of a fixed member set by polling
// each member's /v1/readyz. OnChange fires (from the probing
// goroutine) after the first probe and whenever the set of ready
// members changes — the Router uses it to rebuild its hash ring, which
// is what rebalances streams off a lost replica.
type Monitor struct {
	urls     []string
	interval time.Duration
	client   *http.Client
	// OnChange, when set before Start, receives the new ready set
	// (sorted) after the first probe and after every change. It runs
	// under the monitor's lock — so successive ready sets arrive in probe
	// order and CheckNow returns only once its change is delivered — and
	// must not call back into the Monitor.
	OnChange func(ready []string)

	mu     sync.Mutex
	probed bool // a probe round has completed (see OnChange)
	states map[string]*MemberState
	stop   chan struct{}
	done   chan struct{}
}

// NewMonitor builds a monitor over the member base URLs. interval 0
// selects the default.
func NewMonitor(urls []string, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = defaultPollInterval
	}
	m := &Monitor{
		urls:     append([]string(nil), urls...),
		interval: interval,
		client:   &http.Client{Timeout: probeTimeout},
		states:   make(map[string]*MemberState, len(urls)),
	}
	for _, u := range urls {
		m.states[u] = &MemberState{URL: u}
	}
	return m
}

// CheckNow probes every member once, synchronously, and returns the
// ready set (sorted). Safe from any goroutine; the Router's proxy
// error path calls it to converge faster than the poll interval.
func (m *Monitor) CheckNow() []string {
	type probe struct {
		url string
		ok  bool
		err string
	}
	results := make(chan probe, len(m.urls))
	for _, u := range m.urls {
		go func(u string) {
			ok, errStr := m.probe(u)
			results <- probe{u, ok, errStr}
		}(u)
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.readyLocked()
	for range m.urls {
		p := <-results
		st := m.states[p.url]
		st.Ready, st.Error, st.LastChecked = p.ok, p.err, now
	}
	after := m.readyLocked()
	// The first round always reports: a listener that started out
	// assuming members ready must hear an all-down verdict too.
	if (!m.probed || !equalStrings(before, after)) && m.OnChange != nil {
		m.OnChange(after)
	}
	m.probed = true
	return after
}

func (m *Monitor) probe(url string) (bool, string) {
	resp, err := m.client.Get(url + "/v1/readyz")
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, resp.Status
	}
	return true, ""
}

// Ready returns the currently-ready member set, sorted.
func (m *Monitor) Ready() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readyLocked()
}

func (m *Monitor) readyLocked() []string {
	var out []string
	for _, st := range m.states {
		if st.Ready {
			out = append(out, st.URL)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every member's last observed state, sorted by URL.
func (m *Monitor) Snapshot() []MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberState, 0, len(m.states))
	for _, st := range m.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Start begins background polling (one immediate probe, then every
// interval). Stop ends it; Start after Stop is not supported.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	go func() {
		defer close(done)
		m.CheckNow()
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.CheckNow()
			}
		}
	}()
}

// Stop ends background polling and waits for the poller to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
