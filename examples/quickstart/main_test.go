package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden pins the example's output: testdata/output.txt was
// captured from `go run ./examples/quickstart`.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output\n%s\nwant\n%s", got, want)
	}
}
