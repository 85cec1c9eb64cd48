package banditware

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"banditware/internal/workloads"
)

// The trace CSV fixtures under testdata pin the canonical file format:
// trace_cycles.csv is GenerateCycles{Seed: 1}, trace_bp3d.csv is
// GenerateBP3D{Seed: 3, NumRuns: 40}, and bp3dSeed1SHA256 is the digest of
// the full GenerateBP3D{Seed: 1} file (what `banditware generate -app
// bp3d` writes).
const bp3dSeed1SHA256 = "6ba6e69877f4b97f36af21ca1f5b41502a7ddef95889bf7da8636108291e825c"

func TestWriteTraceCSVGolden(t *testing.T) {
	cycles, err := GenerateCycles(CyclesOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bp3d40, err := GenerateBP3D(BP3DOptions{Seed: 3, NumRuns: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace   *Trace
		fixture string
	}{{cycles, "trace_cycles.csv"}, {bp3d40, "trace_bp3d.csv"}} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		if got := writeTrace(t, tc.trace); !bytes.Equal(got, want) {
			t.Errorf("WriteTraceCSV differs from testdata/%s", tc.fixture)
		}
	}
	bp3d, err := GenerateBP3D(BP3DOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(writeTrace(t, bp3d))
	if got := hex.EncodeToString(sum[:]); got != bp3dSeed1SHA256 {
		t.Errorf("full bp3d trace sha256 = %s, want %s", got, bp3dSeed1SHA256)
	}
}

// TestReadTraceCSVWriteBack: a loaded trace has no ground truth, yet it
// writes back byte for byte.
func TestReadTraceCSVWriteBack(t *testing.T) {
	for _, tc := range []struct {
		fixture  string
		features []string
	}{
		{"trace_cycles.csv", []string{"num_tasks"}},
		{"trace_bp3d.csv", []string{"surface_moisture", "canopy_moisture", "wind_direction",
			"wind_speed", "sim_time", "run_max_mem_rss_bytes", "area"}},
	} {
		path := filepath.Join("testdata", tc.fixture)
		trace, err := ReadTraceCSV(path, tc.features)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := writeTrace(t, trace); !bytes.Equal(got, want) {
			t.Errorf("%s: written-back trace differs from the file it was read from", tc.fixture)
		}
	}
}

// TestReadTraceCSVRejectsBadCells: a missing feature column, a
// non-numeric feature cell and an unparsable id are schema errors naming
// the row and column, not NaN features or a zero id.
func TestReadTraceCSVRejectsBadCells(t *testing.T) {
	const header = "id,hardware,cpus,memory_gb,x,runtime\n"
	for _, tc := range []struct {
		name, csv, want string
	}{
		{"missing feature column", "id,hardware,cpus,memory_gb,runtime\n0,H0,2,16,10\n", `missing column "x"`},
		{"non-numeric cell", header + "0,H0,2,16,abc,10\n1,H0,2,16,3,12\n", `row 1, column "x"`},
		{"unparsable id", header + "0,H0,2,16,1,10\n1.5,H0,2,16,3,12\n", `row 2, column "id"`},
	} {
		path := filepath.Join(t.TempDir(), "trace.csv")
		if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadTraceCSV(path, []string{"x"})
		if !errors.Is(err, workloads.ErrSchema) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrSchema naming %s", tc.name, err, tc.want)
		}
	}
}

func TestReadTraceCSVMissingFile(t *testing.T) {
	if _, err := ReadTraceCSV(filepath.Join(t.TempDir(), "absent.csv"), nil); err == nil {
		t.Fatal("missing file should fail")
	}
}

func writeTrace(t *testing.T, trace *Trace) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := WriteTraceCSV(trace, path); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
