package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"banditware/internal/core"
	"banditware/internal/schema"
)

func fp(v float64) *float64 { return &v }

// testSchema declares the acceptance-scenario feature layout: a
// required bounded numeric, a normalized numeric, and a categorical
// that one-hot expands — encoded dim 1 + 1 + 3 = 5.
func testSchemaFields() *schema.Schema {
	return &schema.Schema{Fields: []schema.Field{
		{Name: "num_tasks", Required: true, Min: fp(0), Max: fp(10000)},
		{Name: "input_mb", Normalize: schema.NormMinMax, Default: fp(100)},
		{Name: "site", Kind: schema.KindCategorical, Categories: []string{"expanse", "nautilus", "local"}},
	}}
}

func newSchemaService(t *testing.T, policy PolicySpec) *Service {
	t.Helper()
	s := NewService(ServiceOptions{})
	err := s.CreateStream("typed", StreamConfig{
		Hardware: testHW(),
		Schema:   testSchemaFields(),
		Options:  core.Options{Seed: 3},
		Policy:   policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateStreamDerivesDimFromSchema(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	info, err := s.StreamInfo("typed")
	if err != nil {
		t.Fatal(err)
	}
	if info.Dim != 5 {
		t.Fatalf("dim = %d, want 5 (1 numeric + 1 numeric + 3 one-hot)", info.Dim)
	}
	if info.Schema == nil || len(info.Schema.Fields) != 3 {
		t.Fatalf("StreamInfo.Schema = %+v", info.Schema)
	}
	// Conflicting explicit dim is rejected; matching one is accepted.
	err = s.CreateStream("clash", StreamConfig{Hardware: testHW(), Dim: 2, Schema: testSchemaFields()})
	if !errors.Is(err, schema.ErrInvalidSchema) {
		t.Fatalf("dim conflict: %v", err)
	}
	if err := s.CreateStream("match", StreamConfig{Hardware: testHW(), Dim: 5, Schema: testSchemaFields()}); err != nil {
		t.Fatal(err)
	}
	// An invalid schema is rejected at creation.
	err = s.CreateStream("bad", StreamConfig{
		Hardware: testHW(),
		Schema:   &schema.Schema{Fields: []schema.Field{{Name: "a"}, {Name: "a"}}},
	})
	if !errors.Is(err, schema.ErrInvalidSchema) {
		t.Fatalf("invalid schema: %v", err)
	}
}

func TestRecommendCtxServesAndObserves(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	ctx := schema.Context{
		Numeric:     map[string]float64{"num_tasks": 200, "input_mb": 512},
		Categorical: map[string]string{"site": "nautilus"},
	}
	tk, err := s.RecommendCtx("typed", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID == "" || len(tk.Predicted) != 3 {
		t.Fatalf("ticket = %+v", tk)
	}
	if err := s.Observe(tk.ID, 120); err != nil {
		t.Fatal(err)
	}
	if n := infoOf(t, s, "typed").Round; n != 1 {
		t.Fatalf("round = %d", n)
	}
	// Direct context observe trains too.
	if err := s.observeDirect("typed", 1, nil, &ctx, Outcome{Runtime: 80}); err != nil {
		t.Fatal(err)
	}
	if n := infoOf(t, s, "typed").Round; n != 2 {
		t.Fatalf("round = %d", n)
	}
	// The schema accumulated normalization state from both encodes.
	sch := infoOf(t, s, "typed").Schema
	if sch.Fields[1].Stats == nil || sch.Fields[1].Stats.Count != 2 {
		t.Fatalf("input_mb stats = %+v", sch.Fields[1].Stats)
	}
	// StreamInfo.Schema is a copy: mutating it must not touch the live one.
	sch.Fields[1].Stats.Count = 99
	again := infoOf(t, s, "typed").Schema
	if again.Fields[1].Stats.Count != 2 {
		t.Fatal("StreamInfo.Schema aliases live state")
	}
}

// TestObserveDirectCtxBadArmKeepsSchema: a direct context observe that
// names an arm outside the stream's set is rejected with core.ErrArm
// before its context is encoded, so the rejected call leaves the
// stream's normalization statistics exactly as they were.
func TestObserveDirectCtxBadArmKeepsSchema(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	before := infoOf(t, s, "typed").Schema
	ctx := schema.Context{Numeric: map[string]float64{"num_tasks": 10, "input_mb": 1e6}}
	for _, arm := range []int{99, -1} {
		err := s.observeDirect("typed", arm, nil, &ctx, Outcome{Runtime: 5})
		if !errors.Is(err, core.ErrArm) {
			t.Fatalf("arm %d: err = %v, want core.ErrArm", arm, err)
		}
	}
	after := infoOf(t, s, "typed").Schema
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected observe changed the schema:\nbefore %+v\nafter  %+v",
			before.Fields[1].Stats, after.Fields[1].Stats)
	}
	if n := infoOf(t, s, "typed").Round; n != 0 {
		t.Fatalf("round = %d after rejected observes, want 0", n)
	}
}

func TestRecommendCtxRejectsMalformedContexts(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	_, err := s.RecommendCtx("typed", schema.Context{
		Numeric:     map[string]float64{"num_tasks": -5, "bogus": 1},
		Categorical: map[string]string{"site": "mars"},
	})
	if !errors.Is(err, schema.ErrSchemaViolation) {
		t.Fatalf("err = %v, want ErrSchemaViolation", err)
	}
	var v *schema.ValidationError
	if !errors.As(err, &v) || len(v.Fields()) != 3 {
		t.Fatalf("validation error = %v", err)
	}
	// Nothing was issued and no normalization state advanced.
	info, _ := s.StreamInfo("typed")
	if info.Issued != 0 || info.Pending != 0 {
		t.Fatalf("rejected context issued a ticket: %+v", info)
	}
	sch := infoOf(t, s, "typed").Schema
	if sch.Fields[1].Stats != nil {
		t.Fatalf("rejected context advanced stats: %+v", sch.Fields[1].Stats)
	}
}

func TestRecommendBatchCtxAtomic(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	good := schema.Context{Numeric: map[string]float64{"num_tasks": 10}}
	bad := schema.Context{Numeric: map[string]float64{"num_tasks": -1}}
	_, err := s.recommendBatch("typed", nil, []schema.Context{good, bad})
	if !errors.Is(err, schema.ErrSchemaViolation) {
		t.Fatalf("bad batch: %v", err)
	}
	// Atomic: the valid item issued nothing and advanced no stats.
	info, _ := s.StreamInfo("typed")
	if info.Issued != 0 {
		t.Fatalf("failed batch issued tickets: %+v", info)
	}
	sch := infoOf(t, s, "typed").Schema
	if sch.Fields[1].Stats != nil {
		t.Fatal("failed batch advanced normalization stats")
	}
	tks, err := s.recommendBatch("typed", nil, []schema.Context{good, good, good})
	if err != nil || len(tks) != 3 {
		t.Fatalf("batch: %v (%d tickets)", err, len(tks))
	}
}

// TestRawVectorsUnaffectedBySchemaLayer: a schemaless stream serves raw
// vectors through the identity schema with the exact decision sequence
// of a standalone bandit — the schema layer is invisible to pre-schema
// callers.
func TestRawVectorsUnaffectedBySchemaLayer(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "plain")
	ref, err := core.New(testHW(), 1, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := []float64{float64(i%10 + 1)}
		want, err := ref.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Recommend("plain", x)
		if err != nil {
			t.Fatal(err)
		}
		if got.Arm != want.Arm || got.Explored != want.Explored {
			t.Fatalf("round %d: service arm %d/%v, bandit arm %d/%v",
				i, got.Arm, got.Explored, want.Arm, want.Explored)
		}
		rt := 5*x[0] + float64(want.Arm)
		if err := ref.Observe(want.Arm, x, rt); err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(got.ID, rt); err != nil {
			t.Fatal(err)
		}
	}
	// Schemaless streams surface no schema...
	info, _ := s.StreamInfo("plain")
	if info.Schema != nil {
		t.Fatalf("schemaless stream reports a schema: %+v", info.Schema)
	}
	if sch := infoOf(t, s, "plain").Schema; sch != nil {
		t.Fatalf("StreamInfo.Schema on schemaless stream: %+v", sch)
	}
	// ...but still serve named contexts through the identity layout.
	tk, err := s.RecommendCtx("plain", schema.Num(map[string]float64{"x0": 7}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(tk.ID, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecommendCtx("plain", schema.Num(map[string]float64{"weight": 7})); !errors.Is(err, schema.ErrSchemaViolation) {
		t.Fatalf("identity schema accepted unknown field: %v", err)
	}
}

// TestSchemaStreamRawVectorsStillServe: schema streams also accept
// pre-encoded vectors of the encoded dimension (the raw API is not cut
// off by declaring a schema).
func TestSchemaStreamRawVectorsStillServe(t *testing.T) {
	s := newSchemaService(t, PolicySpec{})
	tk, err := s.Recommend("typed", []float64{10, 0.5, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(tk.ID, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recommend("typed", []float64{10}); !errors.Is(err, core.ErrDim) {
		t.Fatalf("short raw vector: %v", err)
	}
}

// TestSchemaSnapshotRestoreIdenticalDecisions is the acceptance
// scenario's persistence leg: a schema stream (deterministic LinUCB
// policy, live min-max state) snapshotted mid-traffic restores to
// byte-identical state and produces the identical subsequent decision
// sequence for the identical subsequent contexts.
func TestSchemaSnapshotRestoreIdenticalDecisions(t *testing.T) {
	mkCtx := func(i int) schema.Context {
		return schema.Context{
			Numeric:     map[string]float64{"num_tasks": float64(50 + i*37%400), "input_mb": float64(10 + i*91%900)},
			Categorical: map[string]string{"site": []string{"expanse", "nautilus", "local"}[i%3]},
		}
	}
	s := newSchemaService(t, PolicySpec{Type: PolicyLinUCB, Beta: 1.5})
	for i := 0; i < 30; i++ {
		tk, err := s.RecommendCtx("typed", mkCtx(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(tk.ID, float64(20+i%7*13)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(snap.Bytes()), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The restored schema carries the live normalization statistics.
	origSch := infoOf(t, s, "typed").Schema
	backSch := infoOf(t, back, "typed").Schema
	if !reflect.DeepEqual(origSch, backSch) {
		t.Fatalf("schema diverged across snapshot:\n%+v\nvs\n%+v", origSch, backSch)
	}
	// Identical subsequent decisions on identical subsequent contexts.
	for i := 30; i < 60; i++ {
		want, err := s.RecommendCtx("typed", mkCtx(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.RecommendCtx("typed", mkCtx(i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Arm != want.Arm {
			t.Fatalf("round %d: restored arm %d, original arm %d", i, got.Arm, want.Arm)
		}
		rt := float64(30 + i%11*9)
		if err := s.Observe(want.ID, rt); err != nil {
			t.Fatal(err)
		}
		if err := back.Observe(got.ID, rt); err != nil {
			t.Fatal(err)
		}
	}
}
