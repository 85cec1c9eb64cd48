package workloads

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"

	"banditware/internal/hardware"
)

// The paper's Figure 1 input pipeline maps onto a trace as follows: the
// raw data arrives as one performance table per hardware setting
// (PerArm), "Retrieve Useful Data" keeps the columns a recommender needs
// (Columns with useful set) and "Merge" concatenates the per-hardware
// tables in arm order (Concat). The canonical file form of a trace is
// the long-form CSV table written by WriteCSV and read by ReadCSV.

// Column names of the canonical long-form table:
//
//	id, hardware, cpus, memory_gb, [gpus,] <features...>, runtime
//
// The gpus column is written only when some arm has GPUs, so a CPU-only
// trace keeps the four-column hardware prefix.
const (
	ColID       = "id"
	ColHardware = "hardware"
	ColCPUs     = "cpus"
	ColMemoryGB = "memory_gb"
	ColGPUs     = "gpus"
	ColRuntime  = "runtime"
)

// ErrSchema is returned when a table does not match the canonical schema:
// a missing column or a cell that does not parse.
var ErrSchema = errors.New("workloads: table does not match the canonical run schema")

// PerArm splits the trace into one trace per hardware setting, indexed by
// arm: the per-hardware tables of Figure 1.
func (d *Dataset) PerArm() []*Dataset {
	out := make([]*Dataset, len(d.Hardware))
	for arm := range out {
		out[arm] = d.Filter(func(r Run) bool { return r.Arm == arm })
	}
	return out
}

// Concat is the Figure 1 "Merge" step: it appends the runs of parts, in
// order, into one trace that takes its hardware, feature names and ground
// truth from parts[0]. The parts must share those, as the traces PerArm
// returns do.
func Concat(parts ...*Dataset) *Dataset {
	out := *parts[0]
	out.Runs = nil
	for _, p := range parts {
		out.Runs = append(out.Runs, p.Runs...)
	}
	return &out
}

// Columns returns the header of the canonical table. With useful set it
// is the Figure 1 "Retrieve Useful Data" projection, which drops the
// hardware shape columns cpus, memory_gb and gpus.
func (d *Dataset) Columns(useful bool) []string {
	cols := []string{ColID, ColHardware}
	if !useful {
		cols = append(cols, ColCPUs, ColMemoryGB)
		if d.hasGPUs() {
			cols = append(cols, ColGPUs)
		}
	}
	cols = append(cols, d.FeatureNames...)
	return append(cols, ColRuntime)
}

// WriteCSV writes the trace as CSV under the header Columns(useful). It
// checks the trace's shape only (arm indices, feature lengths, finite
// runtimes), so a trace read by ReadCSV, which has no ground truth,
// writes back unchanged.
func (d *Dataset) WriteCSV(w io.Writer, useful bool) error {
	if err := d.checkShape(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns(useful)); err != nil {
		return err
	}
	names := d.Hardware.Names()
	gpus := d.hasGPUs()
	rec := make([]string, 0, len(d.FeatureNames)+6)
	for _, r := range d.Runs {
		rec = append(rec[:0], strconv.Itoa(r.ID), names[r.Arm])
		if !useful {
			hw := d.Hardware[r.Arm]
			rec = append(rec, strconv.Itoa(hw.CPUs), formatFloat(hw.MemoryGB))
			if gpus {
				rec = append(rec, strconv.Itoa(hw.GPUs))
			}
		}
		for _, v := range r.Features {
			rec = append(rec, formatFloat(v))
		}
		if err := cw.Write(append(rec, formatFloat(r.Runtime))); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the trace to the file at path as WriteCSV does. A
// trace that fails the shape check leaves no file behind.
func (d *Dataset) WriteCSVFile(path string, useful bool) error {
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf, useful); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// hasGPUs reports whether some arm has GPUs, which adds the gpus column.
func (d *Dataset) hasGPUs() bool {
	for _, hw := range d.Hardware {
		if hw.GPUs != 0 {
			return true
		}
	}
	return false
}

// ReadCSV loads a trace from the canonical long-form CSV table, taking
// the named feature columns in order. The hardware set is rebuilt from
// the hardware, cpus, memory_gb and (when the header has it) gpus
// columns in first-seen order. A CSV carries no ground truth, so Truth
// and Noise are nil: the trace supports offline training and evaluation
// but not counterfactual simulation.
//
// A missing column, a cell that does not parse (id, cpus and gpus as
// integers, the rest as finite numbers) or a hardware name whose shape
// changes between rows is an ErrSchema naming the row and column.
func ReadCSV(r io.Reader, featureNames []string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workloads: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%w: no header", ErrSchema)
	}
	index := make(map[string]int, len(records[0]))
	for j, name := range records[0] {
		if _, dup := index[name]; dup {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrSchema, name)
		}
		index[name] = j
	}
	d := &Dataset{App: "csv", FeatureNames: append([]string(nil), featureNames...)}
	cols := d.Columns(false)
	at := make([]int, len(cols))
	for k, name := range cols {
		j, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("%w: missing column %q", ErrSchema, name)
		}
		at[k] = j
	}
	// A feature that happens to be named gpus stays a feature.
	gpuAt, hasGPUs := index[ColGPUs]
	hasGPUs = hasGPUs && !slices.Contains(featureNames, ColGPUs)
	arms := map[string]int{}
	for i, rec := range records[1:] {
		cell := func(k int) string { return rec[at[k]] }
		bad := func(k int, want string) error {
			return fmt.Errorf("%w: row %d, column %q: %q is not %s", ErrSchema, i+1, cols[k], cell(k), want)
		}
		id, err := strconv.Atoi(cell(0))
		if err != nil {
			return nil, bad(0, "an integer")
		}
		cpus, err := strconv.Atoi(cell(2))
		if err != nil {
			return nil, bad(2, "an integer")
		}
		// vals[3] is memory_gb, then the features, then the runtime.
		vals := make([]float64, len(cols))
		for k := 3; k < len(cols); k++ {
			v, err := strconv.ParseFloat(cell(k), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, bad(k, "a finite number")
			}
			vals[k] = v
		}
		hw := hardware.Config{Name: cell(1), CPUs: cpus, MemoryGB: vals[3]}
		if hasGPUs {
			if hw.GPUs, err = strconv.Atoi(rec[gpuAt]); err != nil {
				return nil, fmt.Errorf("%w: row %d, column %q: %q is not an integer", ErrSchema, i+1, ColGPUs, rec[gpuAt])
			}
		}
		arm, seen := arms[hw.Name]
		if !seen {
			arm = len(d.Hardware)
			arms[hw.Name] = arm
			d.Hardware = append(d.Hardware, hw)
		} else if d.Hardware[arm] != hw {
			return nil, fmt.Errorf("%w: row %d, hardware %q: cpus %d, memory_gb %g, gpus %d differ from an earlier row",
				ErrSchema, i+1, hw.Name, hw.CPUs, hw.MemoryGB, hw.GPUs)
		}
		last := len(cols) - 1
		d.Runs = append(d.Runs, Run{ID: id, Arm: arm, Features: vals[4:last:last], Runtime: vals[last]})
	}
	if err := d.Hardware.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: reconstructed hardware invalid: %w", err)
	}
	return d, nil
}
