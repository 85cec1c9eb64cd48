package frame

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"banditware/internal/rng"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f, err := New(
		IntCol("id", []int64{1, 2, 3, 4}),
		FloatCol("runtime", []float64{10.5, 20.25, 5.0, 7.75}),
		StringCol("hw", []string{"H0", "H1", "H0", "H2"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewAndAccessors(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	got := f.Names()
	want := []string{"id", "runtime", "hw"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v", got)
		}
	}
	c, err := f.Column("runtime")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Float || c.Floats[2] != 5.0 {
		t.Fatalf("bad column: %+v", c)
	}
	if _, err := f.Column("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v, want ErrNoColumn", err)
	}
}

func TestDuplicateColumn(t *testing.T) {
	_, err := New(IntCol("a", []int64{1}), FloatCol("a", []float64{2}))
	if !errors.Is(err, ErrDupColumn) {
		t.Fatalf("err = %v, want ErrDupColumn", err)
	}
}

func TestLengthMismatch(t *testing.T) {
	_, err := New(IntCol("a", []int64{1, 2}), FloatCol("b", []float64{1}))
	if !errors.Is(err, ErrLength) {
		t.Fatalf("err = %v, want ErrLength", err)
	}
}

func TestFloatsCoercion(t *testing.T) {
	f := sampleFrame(t)
	ints, err := f.Floats("id")
	if err != nil {
		t.Fatal(err)
	}
	if ints[3] != 4.0 {
		t.Fatalf("int coercion failed: %v", ints)
	}
	if _, err := f.Floats("hw"); !errors.Is(err, ErrKind) {
		t.Fatalf("err = %v, want ErrKind", err)
	}
}

func TestSelect(t *testing.T) {
	f := sampleFrame(t)
	sub, err := f.Select("hw", "id")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.Names()[0] != "hw" {
		t.Fatalf("Select = %v", sub.Names())
	}
	if _, err := f.Select("missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatal("Select of missing column should error")
	}
}

func TestTake(t *testing.T) {
	f := sampleFrame(t)
	taken := f.Take([]int{3, 0, 0})
	if taken.NumRows() != 3 {
		t.Fatalf("Take rows = %d", taken.NumRows())
	}
	if taken.RowAt(0).String("hw") != "H2" || taken.RowAt(1).Float("runtime") != 10.5 {
		t.Fatal("Take reordered incorrectly")
	}
}

func TestRowCursor(t *testing.T) {
	f := sampleFrame(t)
	r := f.RowAt(1)
	if r.Float("runtime") != 20.25 || r.String("hw") != "H1" || r.Index() != 1 {
		t.Fatal("row cursor misread")
	}
	if !math.IsNaN(r.Float("hw")) {
		t.Fatal("Float of string column should be NaN")
	}
	if !math.IsNaN(r.Float("missing")) || r.String("missing") != "" {
		t.Fatal("missing column access should degrade gracefully")
	}
}

func TestFilter(t *testing.T) {
	f := sampleFrame(t)
	fast := f.Filter(func(r Row) bool { return r.Float("runtime") < 11 })
	if fast.NumRows() != 3 {
		t.Fatalf("Filter rows = %d, want 3", fast.NumRows())
	}
	none := f.Filter(func(Row) bool { return false })
	if none.NumRows() != 0 {
		t.Fatal("empty filter should keep zero rows")
	}
}

func TestConcat(t *testing.T) {
	a, _ := New(IntCol("id", []int64{1}), StringCol("s", []string{"x"}))
	b, _ := New(IntCol("id", []int64{2}), StringCol("s", []string{"y"}))
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 2 || c.RowAt(1).String("s") != "y" {
		t.Fatalf("concat failed: %v rows", c.NumRows())
	}
	bad, _ := New(IntCol("zz", []int64{2}), StringCol("s", []string{"y"}))
	if _, err := Concat(a, bad); err == nil {
		t.Fatal("mismatched concat should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sampleFrame(t)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != f.NumRows() || back.NumCols() != f.NumCols() {
		t.Fatalf("round trip shape %dx%d", back.NumRows(), back.NumCols())
	}
	// Types must be re-inferred identically.
	id, _ := back.Column("id")
	if id.Kind != Int {
		t.Fatalf("id kind = %v, want Int", id.Kind)
	}
	rt, _ := back.Column("runtime")
	if rt.Kind != Float {
		t.Fatalf("runtime kind = %v, want Float", rt.Kind)
	}
	hw, _ := back.Column("hw")
	if hw.Kind != String {
		t.Fatalf("hw kind = %v, want String", hw.Kind)
	}
	for i := 0; i < f.NumRows(); i++ {
		if back.RowAt(i).Float("runtime") != f.RowAt(i).Float("runtime") {
			t.Fatalf("runtime row %d mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty csv should error")
	}
	// Ragged rows are rejected by encoding/csv itself.
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged csv should error")
	}
}

func TestReadCSVTypeInference(t *testing.T) {
	in := "n,x,s\n1,1.5,foo\n2,2.5,bar\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := f.Column("n")
	x, _ := f.Column("x")
	s, _ := f.Column("s")
	if n.Kind != Int || x.Kind != Float || s.Kind != String {
		t.Fatalf("kinds = %v %v %v", n.Kind, x.Kind, s.Kind)
	}
}

func TestFilterTakeInvariant(t *testing.T) {
	// Property: filter(p) + filter(!p) partition the rows.
	check := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		rows := int(n%50) + 1
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = r.Float64()
		}
		f, err := New(FloatCol("v", vals))
		if err != nil {
			return false
		}
		hi := f.Filter(func(row Row) bool { return row.Float("v") >= 0.5 })
		lo := f.Filter(func(row Row) bool { return row.Float("v") < 0.5 })
		return hi.NumRows()+lo.NumRows() == rows
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Float.String() != "float" || Int.String() != "int" || String.String() != "string" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
