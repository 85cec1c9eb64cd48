package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"banditware/internal/hardware"
)

// oneArmFactorBytes is the size of one arm's (dim+1)² factor at maxDim,
// about 8 MiB: a rejected create must allocate less than that.
const oneArmFactorBytes = (maxDim + 1) * (maxDim + 1) * 8

// TestCreateRejectsOversizedModelState: an 18.9 KB create body naming
// 2000 arms at dimension 1024 asks for about 17 GB of LinUCB factors.
// It answers 400 without building any of that shape, and no stream is
// registered.
func TestCreateRejectsOversizedModelState(t *testing.T) {
	svc := NewService(ServiceOptions{})
	h := NewHandler(svc)
	arms := make([]string, 2000)
	for i := range arms {
		arms[i] = fmt.Sprintf("H%d=1x1", i)
	}
	body, err := json.Marshal(map[string]any{
		"name": "wide", "hardware_spec": strings.Join(arms, ";"), "dim": maxDim, "policy": PolicyLinUCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "model-state bound") {
		t.Fatalf("create: status %d body %s, want 400 naming the model-state bound", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= oneArmFactorBytes {
		t.Errorf("rejected create allocated %d bytes, want less than one arm's factor (%d)", got, oneArmFactorBytes)
	}
	if n := svc.NumStreams(); n != 0 {
		t.Errorf("rejected create registered %d streams", n)
	}
}

// TestAddArmPastModelStateBound: three arms at dimension 1024 fit the
// bound and a fourth does not. The add fails with ErrBadArmRequest
// (422 over HTTP) and leaves the stream exactly as it was.
func TestAddArmPastModelStateBound(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("wide", StreamConfig{
		Hardware: testHW(), Dim: maxDim, Policy: PolicySpec{Type: PolicyGreedy, Seed: 1},
	}); err != nil {
		t.Fatalf("three arms at maxDim must fit the bound: %v", err)
	}
	infoBefore, err := svc.StreamInfo("wide")
	if err != nil {
		t.Fatal(err)
	}
	armsBefore, err := svc.Arms("wide")
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.AddArm("wide", ArmAdd{Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 32}})
	if !errors.Is(err, ErrBadArmRequest) {
		t.Fatalf("AddArm past the bound: %v, want ErrBadArmRequest", err)
	}
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/wide/arms",
		strings.NewReader(`{"hardware_spec":"H3=8x32"}`)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP add past the bound: status %d body %s, want 422", rec.Code, rec.Body)
	}
	infoAfter, err := svc.StreamInfo("wide")
	if err != nil {
		t.Fatal(err)
	}
	armsAfter, err := svc.Arms("wide")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infoBefore, infoAfter) || !reflect.DeepEqual(armsBefore, armsAfter) {
		t.Fatalf("rejected add changed the stream:\n%+v %+v\n%+v %+v", infoBefore, armsBefore, infoAfter, armsAfter)
	}
	tk, err := svc.Recommend("wide", make([]float64, maxDim))
	if err != nil {
		t.Fatal(err)
	}
	if tk.Arm >= len(testHW()) {
		t.Fatalf("served arm %d of %d", tk.Arm, len(testHW()))
	}
}

// TestLoadSnapshotPastModelStateBound: the bound guards what a request
// can make the server build, not what it already holds. overbound-v7.json
// is a version-7 snapshot of a random-policy stream of 64 arms at
// dimension 256 (64 × 257² cells, past maxModelCells), written before
// the bound existed. It loads and serves, and only growing it further
// is refused.
func TestLoadSnapshotPastModelStateBound(t *testing.T) {
	data, err := os.ReadFile("testdata/overbound-v7.json")
	if err != nil {
		t.Fatal(err)
	}
	if checkShape(64, 256) == nil {
		t.Fatal("fixture shape fits the bound; it no longer tests the restore path")
	}
	svc, err := Load(bytes.NewReader(data), ServiceOptions{})
	if err != nil {
		t.Fatalf("Load of a pre-bound snapshot: %v", err)
	}
	arms, err := svc.Arms("wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 64 {
		t.Fatalf("restored %d arms, want 64", len(arms))
	}
	if _, err := svc.Recommend("wide", make([]float64, 256)); err != nil {
		t.Fatalf("Recommend on the restored stream: %v", err)
	}
	_, err = svc.AddArm("wide", ArmAdd{Hardware: hardware.Config{Name: "H64", CPUs: 65, MemoryGB: 130}})
	if !errors.Is(err, ErrBadArmRequest) || !strings.Contains(err.Error(), "model-state bound") {
		t.Fatalf("AddArm past the bound: %v, want ErrBadArmRequest naming the model-state bound", err)
	}
}
