package armset

import (
	"errors"
	"testing"

	"banditware/internal/hardware"
)

func TestLifecycleTransitions(t *testing.T) {
	l := NewLifecycle(2)
	if !l.AllActive() || l.Len() != 2 {
		t.Fatalf("fresh lifecycle: AllActive=%v Len=%d", l.AllActive(), l.Len())
	}

	idx := l.Add(true)
	if idx != 2 || l.Status(2) != Trial {
		t.Fatalf("Add(trial) = %d status %s", idx, l.Status(2))
	}
	if l.Servable(2) {
		t.Fatal("trial arm must not be servable")
	}

	// Trial → Active via promote.
	if err := l.Promote(2); err != nil {
		t.Fatalf("Promote(trial): %v", err)
	}
	if !l.Servable(2) {
		t.Fatal("promoted arm must be servable")
	}
	// Promote of an active arm is an invalid transition.
	if err := l.Promote(2); !errors.Is(err, ErrState) {
		t.Fatalf("Promote(active) = %v, want ErrState", err)
	}

	// Active → Draining, then retire.
	if err := l.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if l.Servable(0) {
		t.Fatal("draining arm must not be servable")
	}
	if err := l.Drain(0); !errors.Is(err, ErrState) {
		t.Fatalf("Drain(draining) = %v, want ErrState", err)
	}
	if err := l.Retire(1); !errors.Is(err, ErrState) {
		t.Fatalf("Retire(active) = %v, want ErrState", err)
	}
	if err := l.Retire(0); err != nil {
		t.Fatalf("Retire(draining): %v", err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len after retire = %d, want 2", l.Len())
	}

	// Out-of-range everywhere.
	if err := l.Drain(9); !errors.Is(err, ErrArm) {
		t.Fatalf("Drain(9) = %v, want ErrArm", err)
	}
	if err := l.Promote(-1); !errors.Is(err, ErrArm) {
		t.Fatalf("Promote(-1) = %v, want ErrArm", err)
	}
	if err := l.Retire(9); !errors.Is(err, ErrArm) {
		t.Fatalf("Retire(9) = %v, want ErrArm", err)
	}
}

func TestLifecycleLastActiveGuard(t *testing.T) {
	l := NewLifecycle(1)
	if err := l.Drain(0); !errors.Is(err, ErrLastActive) {
		t.Fatalf("Drain(last active) = %v, want ErrLastActive", err)
	}
	l.Add(true) // a trial arm doesn't count as active
	if err := l.Drain(0); !errors.Is(err, ErrLastActive) {
		t.Fatalf("Drain(last active with trial present) = %v, want ErrLastActive", err)
	}
	if err := l.Drain(1); err != nil { // draining the trial arm is fine
		t.Fatalf("Drain(trial): %v", err)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	for _, s := range []Status{Active, Trial, Draining} {
		got, err := ParseStatus(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStatus(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStatus("bogus"); err == nil {
		t.Fatal("ParseStatus(bogus) succeeded")
	}
}

func TestParseWarm(t *testing.T) {
	cases := map[string]Warm{"": WarmCold, "cold": WarmCold, "pooled": WarmPooled, "nearest": WarmNearest}
	for in, want := range cases {
		got, err := ParseWarm(in)
		if err != nil || got != want {
			t.Fatalf("ParseWarm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseWarm("tepid"); err == nil {
		t.Fatal("ParseWarm(tepid) succeeded")
	}
}

func TestNearest(t *testing.T) {
	set := hardware.Set{
		{Name: "small", CPUs: 2, MemoryGB: 8},
		{Name: "big", CPUs: 32, MemoryGB: 128},
		{Name: "gpu", CPUs: 8, MemoryGB: 64, GPUs: 2},
	}
	if got := Nearest(set, hardware.Config{Name: "n", CPUs: 4, MemoryGB: 16}, nil); got != 0 {
		t.Fatalf("Nearest(small-ish) = %d, want 0", got)
	}
	if got := Nearest(set, hardware.Config{Name: "n", CPUs: 16, MemoryGB: 96, GPUs: 1}, nil); got != 2 {
		t.Fatalf("Nearest(gpu-ish) = %d, want 2", got)
	}
	// Eligibility filter excludes the natural neighbor.
	got := Nearest(set, hardware.Config{Name: "n", CPUs: 4, MemoryGB: 16}, func(i int) bool { return i != 0 })
	if got != 2 && got != 1 {
		t.Fatalf("Nearest(filtered) = %d, want an eligible arm", got)
	}
	if got := Nearest(set, hardware.Config{Name: "n", CPUs: 4}, func(int) bool { return false }); got != -1 {
		t.Fatalf("Nearest(none eligible) = %d, want -1", got)
	}
	if got := Nearest(nil, hardware.Config{Name: "n", CPUs: 4}, nil); got != -1 {
		t.Fatalf("Nearest(empty set) = %d, want -1", got)
	}
}
