package schema

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

// testSchema: two numeric fields (one normalized, one bounded with a
// default) plus a categorical field — exercises every encode branch.
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := &Schema{Fields: []Field{
		{Name: "size", Required: true, Min: fp(0), Max: fp(1000), Normalize: NormMinMax},
		{Name: "cpu", Default: fp(2)},
		{Name: "site", Kind: KindCategorical, Categories: []string{"expanse", "nautilus", "local"}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodedDim(t *testing.T) {
	s := testSchema(t)
	if got := s.EncodedDim(); got != 5 { // 1 + 1 + 3
		t.Fatalf("EncodedDim = %d, want 5", got)
	}
	if got := Identity(3).EncodedDim(); got != 3 {
		t.Fatalf("Identity(3).EncodedDim = %d", got)
	}
}

func TestEncodeDeterministicLayout(t *testing.T) {
	s := testSchema(t)
	ctx := Context{
		Numeric:     map[string]float64{"size": 100, "cpu": 4},
		Categorical: map[string]string{"site": "nautilus"},
	}
	x, err := s.Encode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// First minmax encode has a degenerate range -> 0.
	want := []float64{0, 4, 0, 1, 0}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("encode = %v, want %v", x, want)
	}
	// Second encode: size 300 with range [100, 300] -> 1.
	x, err = s.Encode(Context{Numeric: map[string]float64{"size": 300}})
	if err != nil {
		t.Fatal(err)
	}
	// cpu absent -> default 2; site absent, no default -> all zeros.
	want = []float64{1, 2, 0, 0, 0}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("encode = %v, want %v", x, want)
	}
	// Third: size 200 is the midpoint of [100, 300].
	x, _ = s.Encode(Context{Numeric: map[string]float64{"size": 200}})
	if x[0] != 0.5 {
		t.Fatalf("minmax midpoint = %g, want 0.5", x[0])
	}
}

func TestZScoreNormalization(t *testing.T) {
	s := &Schema{Fields: []Field{{Name: "v", Required: true, Normalize: NormZScore}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	enc := func(v float64) float64 {
		t.Helper()
		x, err := s.Encode(Num(map[string]float64{"v": v}))
		if err != nil {
			t.Fatal(err)
		}
		return x[0]
	}
	if got := enc(10); got != 0 { // single observation: no spread yet
		t.Fatalf("first z-score = %g, want 0", got)
	}
	enc(20)
	// After 10, 20, 30: mean 20, sample sd 10 -> z(30) = 1.
	if got := enc(30); math.Abs(got-1) > 1e-12 {
		t.Fatalf("z(30) = %g, want 1", got)
	}
	st := s.Fields[0].Stats
	if st == nil || st.Count != 3 || st.Mean != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidateContextErrors(t *testing.T) {
	s := testSchema(t)
	err := s.ValidateContext(Context{
		Numeric:     map[string]float64{"cpu": 4, "zz_bogus": 1, "aa_bogus": 2},
		Categorical: map[string]string{"site": "mars"},
	})
	if err == nil {
		t.Fatal("invalid context accepted")
	}
	if !errors.Is(err, ErrSchemaViolation) {
		t.Fatalf("error does not wrap ErrSchemaViolation: %v", err)
	}
	var v *ValidationError
	if !errors.As(err, &v) {
		t.Fatalf("not a ValidationError: %T", err)
	}
	// Deterministic order: declared fields first (size missing, site
	// unknown category), then unknown fields sorted.
	var fields []string
	var reasons []string
	for _, fe := range v.Fields() {
		fields = append(fields, fe.Field)
		reasons = append(reasons, fe.Reason)
	}
	wantFields := []string{"size", "site", "aa_bogus", "zz_bogus"}
	if !reflect.DeepEqual(fields, wantFields) {
		t.Fatalf("fields = %v, want %v", fields, wantFields)
	}
	if reasons[0] != "required field missing" || reasons[2] != "unknown field" {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestValidateContextBoundsAndTypes(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		name string
		ctx  Context
		want string
	}{
		{"below-min", Num(map[string]float64{"size": -1}), "below minimum"},
		{"above-max", Num(map[string]float64{"size": 2000}), "above maximum"},
		{"nan", Num(map[string]float64{"size": math.NaN()}), "non-finite"},
		{"numeric-as-string", Context{Categorical: map[string]string{"size": "big"}}, "expected a number"},
		{"categorical-as-number", Context{
			Numeric: map[string]float64{"size": 1, "site": 2},
		}, "expected a category string"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := s.ValidateContext(tc.ctx)
			if err == nil {
				t.Fatal("accepted")
			}
			var v *ValidationError
			if !errors.As(err, &v) {
				t.Fatalf("not a ValidationError: %v", err)
			}
			found := false
			for _, fe := range v.Fields() {
				if strings.Contains(fe.Reason, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %q in %v", tc.want, err)
			}
		})
	}
	// ValidateContext must not touch normalization state.
	if s.Fields[0].Stats != nil {
		t.Fatalf("validation mutated stats: %+v", s.Fields[0].Stats)
	}
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{},
		{Fields: []Field{{Name: ""}}},
		{Fields: []Field{{Name: "a"}, {Name: "a"}}},
		{Fields: []Field{{Name: "a", Kind: "enum"}}},
		{Fields: []Field{{Name: "a", Normalize: "log"}}},
		{Fields: []Field{{Name: "a", Min: fp(5), Max: fp(1)}}},
		{Fields: []Field{{Name: "a", Required: true, Default: fp(1)}}},
		{Fields: []Field{{Name: "a", Default: fp(9), Max: fp(5)}}},
		{Fields: []Field{{Name: "a", Categories: []string{"x"}}}}, // numeric with categories
		{Fields: []Field{{Name: "a", Kind: KindCategorical}}},
		{Fields: []Field{{Name: "a", Kind: KindCategorical, Categories: []string{"x", "x"}}}},
		{Fields: []Field{{Name: "a", Kind: KindCategorical, Categories: []string{""}}}},
		{Fields: []Field{{Name: "a", Kind: KindCategorical, Categories: []string{"x"}, DefaultCategory: "y"}}},
		{Fields: []Field{{Name: "a", Kind: KindCategorical, Categories: []string{"x"}, Normalize: NormMinMax}}},
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrInvalidSchema) {
			t.Errorf("bad schema %d accepted (err = %v)", i, err)
		}
	}
	if err := testSchema(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityPassThrough(t *testing.T) {
	s := Identity(3)
	x, err := s.Encode(Context{Numeric: map[string]float64{"x0": 1.5, "x1": -2, "x2": 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, []float64{1.5, -2, 7}) {
		t.Fatalf("identity encode = %v", x)
	}
	if err := s.ValidateContext(Context{Numeric: map[string]float64{"x0": 1}}); err == nil {
		t.Fatal("identity accepted a short context")
	}
}

func TestContextJSONRoundTrip(t *testing.T) {
	var ctx Context
	blob := []byte(`{"size": 120.5, "cpu": 4, "site": "expanse"}`)
	if err := json.Unmarshal(blob, &ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Numeric["size"] != 120.5 || ctx.Numeric["cpu"] != 4 || ctx.Categorical["site"] != "expanse" {
		t.Fatalf("decoded %+v", ctx)
	}
	out, err := json.Marshal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var back Context
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ctx, back) {
		t.Fatalf("round trip: %+v vs %+v", ctx, back)
	}
	// Non-scalar values are rejected.
	if err := json.Unmarshal([]byte(`{"size": [1,2]}`), &ctx); err == nil {
		t.Fatal("array value accepted")
	}
	if err := json.Unmarshal([]byte(`{"flag": true}`), &ctx); err == nil {
		t.Fatal("bool value accepted")
	}
}

func TestSchemaJSONRoundTripWithStats(t *testing.T) {
	s := testSchema(t)
	for _, v := range []float64{10, 400, 990} {
		if _, err := s.Encode(Num(map[string]float64{"size": v})); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The restored schema continues the same normalization sequence.
	x1, err := s.Encode(Num(map[string]float64{"size": 500}))
	if err != nil {
		t.Fatal(err)
	}
	x2, err := back.Encode(Num(map[string]float64{"size": 500}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x1, x2) {
		t.Fatalf("restored schema diverged: %v vs %v", x1, x2)
	}
	// And re-marshals byte-for-byte.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	var backAgain Schema
	if err := json.Unmarshal(blob2, &backAgain); err != nil {
		t.Fatal(err)
	}
	blob3, _ := json.Marshal(&backAgain)
	if string(blob2) != string(blob3) {
		t.Fatal("schema JSON not byte-stable")
	}
}

func TestCloneIsolatesState(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Encode(Num(map[string]float64{"size": 50})); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if _, err := c.Encode(Num(map[string]float64{"size": 500})); err != nil {
		t.Fatal(err)
	}
	if s.Fields[0].Stats.Count != 1 || c.Fields[0].Stats.Count != 2 {
		t.Fatalf("clone shares stats: %+v vs %+v", s.Fields[0].Stats, c.Fields[0].Stats)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{"fields": []}`)); !errors.Is(err, ErrInvalidSchema) {
		t.Fatalf("empty schema: %v", err)
	}
	if _, err := Parse([]byte(`not json`)); !errors.Is(err, ErrInvalidSchema) {
		t.Fatalf("garbage: %v", err)
	}
	// Strict decoding: a misspelled attribute must fail loudly (matching
	// the HTTP route), not silently declare a different schema.
	typo := []byte(`{"fields": [{"name": "num_tasks", "requird": true}]}`)
	if _, err := Parse(typo); !errors.Is(err, ErrInvalidSchema) {
		t.Fatalf("typo'd attribute accepted: %v", err)
	}
	if _, err := Parse([]byte(`{"fields": [{"name": "a"}]} trailing`)); !errors.Is(err, ErrInvalidSchema) {
		t.Fatalf("trailing data accepted: %v", err)
	}
}

func TestFromMapTypes(t *testing.T) {
	ctx, err := FromMap(map[string]any{"a": 1, "b": int64(2), "c": 3.5, "d": "x", "e": json.Number("7")})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Numeric["a"] != 1 || ctx.Numeric["b"] != 2 || ctx.Numeric["c"] != 3.5 ||
		ctx.Categorical["d"] != "x" || ctx.Numeric["e"] != 7 {
		t.Fatalf("FromMap = %+v", ctx)
	}
	if _, err := FromMap(map[string]any{"bad": []int{1}}); err == nil {
		t.Fatal("slice value accepted")
	}
}

// TestEncodeIntoOnePath: EncodeInto is the one validate + encode path.
// A valid context allocates nothing beyond the caller's buffer and
// encodes exactly as Encode does; a context with an unknown field is
// rejected with the same error ValidateContext reports, and leaves the
// normalization statistics untouched.
func TestEncodeIntoOnePath(t *testing.T) {
	s := testSchema(t)
	ref := s.Clone()
	ctx := Context{
		Numeric:     map[string]float64{"size": 40, "cpu": 3},
		Categorical: map[string]string{"site": "nautilus"},
	}
	buf := make([]float64, 0, s.EncodedDim())
	for i := 0; i < 3; i++ {
		got, err := s.EncodeInto(ctx, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Encode(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EncodeInto = %v, Encode = %v", got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.EncodeInto(ctx, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("EncodeInto of a valid context: %v allocs/op, want 0", allocs)
	}

	statsBefore, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	bad := Context{
		Numeric:     map[string]float64{"size": 40, "bogus": 1},
		Categorical: map[string]string{"site": "local"},
	}
	_, err = s.EncodeInto(bad, buf[:0])
	if err == nil || err.Error() != s.ValidateContext(bad).Error() {
		t.Fatalf("EncodeInto error %v, ValidateContext error %v", err, s.ValidateContext(bad))
	}
	if !strings.Contains(err.Error(), `field "bogus": unknown field`) {
		t.Fatalf("unknown field not reported: %v", err)
	}
	statsAfter, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(statsBefore) != string(statsAfter) {
		t.Fatalf("rejected context moved the statistics:\n%s\n%s", statsBefore, statsAfter)
	}
}
