package main

import (
	"strings"
	"testing"
)

// TestDriftVerdict: the drift sentence claims a recovery only when the
// forgetting bandit beats both the stationary bandit and random choice.
func TestDriftVerdict(t *testing.T) {
	for _, c := range []struct {
		name                 string
		static, forget, rand float64
		recovers             bool
	}{
		{"beats both", 0.05, 0.62, 0.25, true},
		{"below random", 0.03, 0.14, 0.25, false},
		{"below static", 0.40, 0.30, 0.25, false},
		{"ties random", 0.00, 0.25, 0.25, false},
	} {
		got := driftVerdict(120, c.static, c.forget, c.rand)
		if strings.Contains(got, "forgetting recovers") != c.recovers ||
			strings.Contains(got, "does not recover") == c.recovers {
			t.Errorf("%s: %q, want recovers=%v", c.name, got, c.recovers)
		}
	}
}
