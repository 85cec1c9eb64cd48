package policy

import (
	"testing"
)

func TestLinArmsAddRemove(t *testing.T) {
	p, err := NewLinUCB(2, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		x := []float64{float64(i % 4)}
		if err := p.Update(0, x, 6); err != nil {
			t.Fatal(err)
		}
		if err := p.Update(1, x, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddArm(); err != nil {
		t.Fatal(err)
	}
	preds, err := p.PredictAllInto([]float64{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("PredictAll after AddArm has %d entries, want 3", len(preds))
	}
	for i := 0; i < 40; i++ {
		if err := p.Update(2, []float64{float64(i % 4)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	arm, err := p.Exploit([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 2 {
		t.Fatalf("Exploit after training new arm = %d, want 2", arm)
	}
	if err := p.RemoveArm(2); err != nil {
		t.Fatal(err)
	}
	arm, err = p.Exploit([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 1 {
		t.Fatalf("Exploit after removing winner = %d, want 1", arm)
	}
	if err := p.RemoveArm(9); err != ErrArm {
		t.Fatalf("RemoveArm(9) = %v, want ErrArm", err)
	}
}

func TestLinArmsChurnWindowed(t *testing.T) {
	p, err := NewGreedy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdaptation(1, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i % 4)}
		if err := p.Update(0, x, 5); err != nil {
			t.Fatal(err)
		}
		if err := p.Update(1, x, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddArm(); err != nil {
		t.Fatal(err)
	}
	// The new arm must accept windowed updates without panicking on
	// missing buffers.
	for i := 0; i < 20; i++ {
		if err := p.Update(2, []float64{float64(i % 4)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	arm, err := p.Exploit([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 2 {
		t.Fatalf("windowed Exploit = %d, want 2", arm)
	}
	if err := p.RemoveArm(0); err != nil {
		t.Fatal(err)
	}
	// Indices shifted: old arm 2 is now arm 1.
	arm, err = p.Exploit([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 1 {
		t.Fatalf("Exploit after shift = %d, want 1", arm)
	}
}

func TestRandomAddRemove(t *testing.T) {
	p, err := NewRandom(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddArm(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		a, err := p.Select([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if a < 0 || a > 2 {
			t.Fatalf("Select out of range: %d", a)
		}
		seen[a] = true
	}
	if !seen[2] {
		t.Fatal("new arm never selected")
	}
	if err := p.RemoveArm(2); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveArm(1); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveArm(0); err == nil {
		t.Fatal("removed the last arm")
	}
}
