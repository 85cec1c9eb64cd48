package main

import "testing"

// TestMatMulClaims checks the paper's matmul claims (Figs. 9–12) on the
// quick configuration at seed 1, with margins well inside the spread
// of seeds 1–3:
//   - Fig. 9, full trace without tolerance: better than the 0.2 a random
//     pick over five arms scores;
//   - Fig. 10, large matrices only: at least 0.75 (paper ≈ 0.8);
//   - Fig. 11, full trace with a 20 s tolerance: better than Fig. 9;
//   - Fig. 12, large matrices with a 5 % tolerance: at least 0.75.
func TestMatMulClaims(t *testing.T) {
	cfg := benchConfig{Quick: true, Seed: 1}
	final := func(title string, subset bool, tr, ts float64) float64 {
		t.Helper()
		res, err := matmulBandit(cfg, t.TempDir(), title, subset, tr, ts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds[len(res.Rounds)-1].AccMean
	}
	fig9 := final("fig9", false, 0, 0)
	fig10 := final("fig10", true, 0, 0)
	fig11 := final("fig11", false, 0, 20)
	fig12 := final("fig12", true, 0.05, 0)
	t.Logf("final accuracy: fig9 %.3f, fig10 %.3f, fig11 %.3f, fig12 %.3f", fig9, fig10, fig11, fig12)
	if fig9 <= 0.2 {
		t.Errorf("Fig. 9 accuracy %.3f, want above random (0.2)", fig9)
	}
	if fig10 < 0.75 {
		t.Errorf("Fig. 10 accuracy %.3f, want at least 0.75", fig10)
	}
	if fig11 <= fig9 {
		t.Errorf("Fig. 11 accuracy %.3f, want above Fig. 9's %.3f", fig11, fig9)
	}
	if fig12 < 0.75 {
		t.Errorf("Fig. 12 accuracy %.3f, want at least 0.75", fig12)
	}
}
