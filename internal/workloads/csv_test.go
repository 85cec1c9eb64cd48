package workloads

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"banditware/internal/rng"
)

func TestCSVRoundTrip(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 1, NumRuns: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	back, err := ReadCSV(strings.NewReader(written), d.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Hardware, d.Hardware) {
		t.Fatalf("hardware = %v, want %v", back.Hardware, d.Hardware)
	}
	if !reflect.DeepEqual(back.Runs, d.Runs) {
		t.Fatal("runs changed in the round trip")
	}
	if back.Truth != nil || back.Noise != nil {
		t.Fatal("a trace read from CSV has no ground truth")
	}
	// A loaded trace has no ground truth but still writes back unchanged.
	buf.Reset()
	if err := back.WriteCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	if buf.String() != written {
		t.Fatal("written-back CSV differs from the original")
	}
}

func TestColumns(t *testing.T) {
	d := &Dataset{FeatureNames: []string{"a", "b"}}
	if got, want := d.Columns(false), []string{ColID, ColHardware, ColCPUs, ColMemoryGB, "a", "b", ColRuntime}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Columns(false) = %v, want %v", got, want)
	}
	if got, want := d.Columns(true), []string{ColID, ColHardware, "a", "b", ColRuntime}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Columns(true) = %v, want %v", got, want)
	}
}

func TestWriteCSVRejectsInvalid(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 1, NumRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	empty := *d
	empty.Runs = nil
	if err := empty.WriteCSV(&bytes.Buffer{}, false); err != ErrEmptyDataset {
		t.Fatalf("empty trace: err = %v, want ErrEmptyDataset", err)
	}
	bad := *d
	bad.Runs = append([]Run(nil), d.Runs...)
	bad.Runs[3].Arm = len(d.Hardware)
	if err := bad.WriteCSV(&bytes.Buffer{}, false); err == nil {
		t.Fatal("out-of-range arm should fail")
	}
}

func TestFigure1Pipeline(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 2, NumRuns: 90})
	if err != nil {
		t.Fatal(err)
	}
	perHW := d.PerArm()
	if len(perHW) != len(d.Hardware) {
		t.Fatalf("per-hardware tables = %d, want %d", len(perHW), len(d.Hardware))
	}
	var want []Run
	for arm, part := range perHW {
		for _, r := range part.Runs {
			if r.Arm != arm {
				t.Fatalf("table %d holds a run of arm %d", arm, r.Arm)
			}
		}
		for _, r := range d.Runs {
			if r.Arm == arm {
				want = append(want, r)
			}
		}
	}
	merged := Concat(perHW...)
	if !reflect.DeepEqual(merged.Runs, want) {
		t.Fatal("merge is not the runs in arm order, trace order within an arm")
	}
	var buf bytes.Buffer
	if err := merged.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 91 || lines[0] != strings.Join(d.Columns(true), ",") {
		t.Fatalf("useful table: %d lines, header %q", len(lines), lines[0])
	}
}

func TestReadCSVSchemaErrors(t *testing.T) {
	const header = "id,hardware,cpus,memory_gb,x,runtime\n"
	for _, tc := range []struct {
		name, csv, want string
	}{
		{"no header", "", "no header"},
		{"missing feature", "id,hardware,cpus,memory_gb,runtime\n0,H0,2,16,10\n", `missing column "x"`},
		{"non-numeric feature", header + "0,H0,2,16,abc,10\n1,H0,2,16,3,12\n", `row 1, column "x": "abc"`},
		{"bad id", header + "0,H0,2,16,1,10\nseven,H0,2,16,3,12\n", `row 2, column "id": "seven"`},
		{"fractional cpus", header + "0,H0,2.5,16,1,10\n", `row 1, column "cpus"`},
		{"NaN runtime", header + "0,H0,2,16,1,NaN\n", `row 1, column "runtime"`},
		{"hardware changes shape", header + "0,H0,2,16,1,10\n1,H0,4,16,1,10\n", `row 2, hardware "H0"`},
	} {
		_, err := ReadCSV(strings.NewReader(tc.csv), []string{"x"})
		if !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrSchema naming %s", tc.name, err, tc.want)
		}
	}
	// Ragged rows are rejected by encoding/csv itself.
	if _, err := ReadCSV(strings.NewReader(header+"0,H0\n"), []string{"x"}); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestReadCSVBadHardware(t *testing.T) {
	in := "id,hardware,cpus,memory_gb,runtime\n0,H0,0,16,10\n" // zero CPUs
	if _, err := ReadCSV(strings.NewReader(in), nil); err == nil {
		t.Fatal("invalid reconstructed hardware should fail")
	}
}

func TestReadCSVDuplicateColumn(t *testing.T) {
	in := "id,id,hardware,cpus,memory_gb,x,runtime\n0,0,H0,2,16,1,10\n"
	_, err := ReadCSV(strings.NewReader(in), []string{"x"})
	if !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), `duplicate column "id"`) {
		t.Fatalf("err = %v, want ErrSchema naming the duplicate column", err)
	}
}

// TestWriteCSVFileRoundTrip checks that every cell kind survives a trip
// through a file: integer ids, hardware names and shapes, and float
// features and runtimes, bit for bit.
func TestWriteCSVFileRoundTrip(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 3, NumRuns: 30})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bp3d.csv")
	if err := d.WriteCSVFile(path, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadCSV(f, d.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Hardware, d.Hardware) || !reflect.DeepEqual(back.Runs, d.Runs) {
		t.Fatal("trace changed in the trip through a file")
	}
}

func TestWriteCSVFileRejectsInvalid(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 1, NumRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.Runs = nil
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := d.WriteCSVFile(path, false); err != ErrEmptyDataset {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused trace left a file behind: %v", err)
	}
}

// TestWriteCSVUseful checks the Figure 1 "Retrieve Useful Data"
// projection: the cpus and memory_gb cells are dropped and the remaining
// cells stay under their headers.
func TestWriteCSVUseful(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 1, NumRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	var full, useful bytes.Buffer
	if err := d.WriteCSV(&full, false); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(&useful, true); err != nil {
		t.Fatal(err)
	}
	fullLines := strings.Split(strings.TrimSpace(full.String()), "\n")
	usefulLines := strings.Split(strings.TrimSpace(useful.String()), "\n")
	if len(usefulLines) != len(fullLines) {
		t.Fatalf("useful table has %d lines, full table %d", len(usefulLines), len(fullLines))
	}
	for i := range fullLines {
		cells := strings.Split(fullLines[i], ",")
		want := strings.Join(append(cells[:2:2], cells[4:]...), ",")
		if usefulLines[i] != want {
			t.Fatalf("line %d = %q, want %q", i, usefulLines[i], want)
		}
	}
}

func TestPerArm(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 4, NumRuns: 60})
	if err != nil {
		t.Fatal(err)
	}
	parts := d.PerArm()
	if len(parts) != len(d.Hardware) {
		t.Fatalf("per-hardware tables = %d, want %d", len(parts), len(d.Hardware))
	}
	total := 0
	for arm, p := range parts {
		if !reflect.DeepEqual(p.Hardware, d.Hardware) || !reflect.DeepEqual(p.FeatureNames, d.FeatureNames) {
			t.Fatalf("table %d changed the hardware set or feature names", arm)
		}
		for _, r := range p.Runs {
			if r.Arm != arm {
				t.Fatalf("table %d holds a run of arm %d", arm, r.Arm)
			}
		}
		total += len(p.Runs)
	}
	if total != len(d.Runs) {
		t.Fatalf("row conservation: %d != %d", total, len(d.Runs))
	}
}

func TestConcat(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 5, NumRuns: 12})
	if err != nil {
		t.Fatal(err)
	}
	a := d.Filter(func(r Run) bool { return r.ID%2 == 1 })
	b := d.Filter(func(r Run) bool { return r.ID%2 == 0 })
	c := Concat(a, b)
	want := append(append([]Run(nil), a.Runs...), b.Runs...)
	if !reflect.DeepEqual(c.Runs, want) {
		t.Fatal("Concat is not the parts' runs in order")
	}
	if !reflect.DeepEqual(c.Hardware, d.Hardware) || !reflect.DeepEqual(c.FeatureNames, d.FeatureNames) {
		t.Fatal("Concat changed the hardware set or feature names")
	}
	if len(a.Runs) != 6 || len(Concat(a).Runs) != 6 {
		t.Fatal("Concat of one part should be that part")
	}
}

func TestFilter(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 6, NumRuns: 20})
	if err != nil {
		t.Fatal(err)
	}
	fast := d.Filter(func(r Run) bool { return r.Runtime < d.Runs[0].Runtime })
	for _, r := range fast.Runs {
		if r.Runtime >= d.Runs[0].Runtime {
			t.Fatalf("Filter kept run %d with runtime %v", r.ID, r.Runtime)
		}
	}
	if none := d.Filter(func(Run) bool { return false }); len(none.Runs) != 0 {
		t.Fatal("an always-false filter should keep no runs")
	}
	if all := d.Filter(func(Run) bool { return true }); !reflect.DeepEqual(all.Runs, d.Runs) {
		t.Fatal("an always-true filter should keep every run in order")
	}
}

// TestFilterPartitionsRows checks the property that Filter(p) and
// Filter(!p) partition the runs.
func TestFilterPartitionsRows(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		d := &Dataset{Runs: make([]Run, int(n%50)+1)}
		for i := range d.Runs {
			d.Runs[i] = Run{ID: i, Runtime: r.Float64()}
		}
		hi := d.Filter(func(run Run) bool { return run.Runtime >= 0.5 })
		lo := d.Filter(func(run Run) bool { return run.Runtime < 0.5 })
		return len(hi.Runs)+len(lo.Runs) == len(d.Runs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCSVRoundTripKeepsGPUs: a GPU-bearing trace writes a gpus column
// after memory_gb and reads back with every arm's accelerators, and the
// written-back file is byte-identical.
func TestCSVRoundTripKeepsGPUs(t *testing.T) {
	d, err := GenerateLLM(LLMOptions{Seed: 1, NumRuns: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !d.hasGPUs() {
		t.Fatal("the LLM trace has no GPUs; it no longer tests the gpus column")
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	header, _, _ := strings.Cut(written, "\n")
	if want := strings.Join([]string{ColID, ColHardware, ColCPUs, ColMemoryGB, ColGPUs}, ","); !strings.HasPrefix(header, want+",") {
		t.Fatalf("header %q, want it to start with %q", header, want)
	}
	back, err := ReadCSV(strings.NewReader(written), d.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Hardware, d.Hardware) {
		t.Fatalf("hardware = %v, want %v", back.Hardware, d.Hardware)
	}
	if !reflect.DeepEqual(back.Runs, d.Runs) {
		t.Fatal("runs changed in the round trip")
	}
	buf.Reset()
	if err := back.WriteCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	if buf.String() != written {
		t.Fatal("written-back CSV differs from the original")
	}
	// The useful projection drops the hardware shape, gpus included.
	buf.Reset()
	if err := d.WriteCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(buf.String(), "\n"); strings.Contains(header, ColGPUs) {
		t.Fatalf("useful header %q carries gpus", header)
	}
}

// TestReadCSVGPUColumn: the gpus column is optional (absent means 0), is
// read as an integer, takes part in the per-hardware consistency check,
// and a feature named gpus stays a feature.
func TestReadCSVGPUColumn(t *testing.T) {
	const header = "id,hardware,cpus,memory_gb,gpus,x,runtime\n"
	d, err := ReadCSV(strings.NewReader(header+"0,G1,8,32,1,5,10\n1,C,2,16,0,5,12\n"), []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Hardware[0].GPUs != 1 || d.Hardware[1].GPUs != 0 {
		t.Fatalf("hardware = %v", d.Hardware)
	}
	for _, tc := range []struct{ name, csv, want string }{
		{"fractional gpus", header + "0,G1,8,32,1.5,5,10\n", `row 1, column "gpus"`},
		{"gpus change", header + "0,G1,8,32,1,5,10\n1,G1,8,32,2,5,10\n", `row 2, hardware "G1"`},
	} {
		_, err := ReadCSV(strings.NewReader(tc.csv), []string{"x"})
		if !errors.Is(err, ErrSchema) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrSchema naming %s", tc.name, err, tc.want)
		}
	}
	if _, err := ReadCSV(strings.NewReader(header+"0,G1,8,32,-1,5,10\n"), []string{"x"}); err == nil {
		t.Error("negative gpus accepted")
	}
	d, err = ReadCSV(strings.NewReader("id,hardware,cpus,memory_gb,gpus,runtime\n0,H0,2,16,4,10\n"), []string{ColGPUs})
	if err != nil {
		t.Fatal(err)
	}
	if d.Hardware[0].GPUs != 0 || d.Runs[0].Features[0] != 4 {
		t.Fatalf("a gpus feature was read as hardware: %v %v", d.Hardware, d.Runs[0].Features)
	}
}
