package frame

import "testing"

func TestDescribe(t *testing.T) {
	f := sampleFrame(t)
	d, err := f.Describe()
	if err != nil {
		t.Fatal(err)
	}
	// Two numeric columns: id, runtime (hw is string).
	if d.NumRows() != 2 {
		t.Fatalf("describe rows = %d, want 2", d.NumRows())
	}
	var runtimeRow Row
	found := false
	for i := 0; i < d.NumRows(); i++ {
		if d.RowAt(i).String("column") == "runtime" {
			runtimeRow = d.RowAt(i)
			found = true
		}
	}
	if !found {
		t.Fatal("runtime row missing from describe")
	}
	if runtimeRow.Float("min") != 5.0 || runtimeRow.Float("max") != 20.25 {
		t.Fatalf("describe min/max = %v/%v", runtimeRow.Float("min"), runtimeRow.Float("max"))
	}
}
