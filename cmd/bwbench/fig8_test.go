package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFig8Reproducible: two fig8 runs at one seed write the same
// summary and a byte-identical data.csv, so the figure carries no
// wall-clock or machine-dependent value.
func TestFig8Reproducible(t *testing.T) {
	cfg := benchConfig{Quick: true, Seed: 1}
	var summaries [2]string
	var data [2][]byte
	for i := range summaries {
		dir := t.TempDir()
		s, err := runFig8(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		summaries[i] = s
		if data[i], err = os.ReadFile(filepath.Join(dir, "data.csv")); err != nil {
			t.Fatal(err)
		}
	}
	if summaries[0] != summaries[1] {
		t.Errorf("summaries differ:\n%s\n---\n%s", summaries[0], summaries[1])
	}
	if len(data[0]) == 0 || !bytes.Equal(data[0], data[1]) {
		t.Errorf("data.csv differs between runs (%d and %d bytes)", len(data[0]), len(data[1]))
	}
}
