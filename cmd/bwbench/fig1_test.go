package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFig1Golden pins `bwbench -only fig1` at the default seed: its
// summary line and the SHA-256 of the merged data.csv it writes.
func TestFig1Golden(t *testing.T) {
	const (
		wantSummary = "Figure 1 pipeline: 1316 raw BP3D runs split per hardware " +
			"(H0: 439 rows, H1: 439 rows, H2: 438 rows), projected to useful columns, " +
			"merged back to 1316 rows × 10 cols."
		wantSHA256 = "1ac12d1d9df928773c2d151a82f11fc4c4a7cd9969b5a3251df4abb97aeee42f"
	)
	dir := t.TempDir()
	summary, err := runFig1(benchConfig{Quick: true, Seed: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if summary != wantSummary {
		t.Errorf("summary = %q, want %q", summary, wantSummary)
	}
	data, err := os.ReadFile(filepath.Join(dir, "data.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != wantSHA256 {
		t.Errorf("data.csv sha256 = %s, want %s", got, wantSHA256)
	}
}
