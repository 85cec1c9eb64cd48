package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDescribeGolden pins describe's output. Each testdata/<name>.out was
// captured from `banditware describe -in testdata/<name>.csv`: the trace
// written by `generate`, a mixed table (int, float, string and
// partly-numeric columns, a quoted column name, Inf, hex floats, an
// integer past 2^53) and a header-only table.
func TestDescribeGolden(t *testing.T) {
	for _, name := range []string{"trace_cycles", "describe_mixed", "describe_empty"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".out"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := describeCSV(&got, "testdata/"+name+".csv"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: describe output\n%s\nwant\n%s", name, got.Bytes(), want)
		}
	}
}

// TestDescribeNumericColumns checks which columns describe summarises:
// integer and float columns are, a string column is not.
func TestDescribeNumericColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kinds.csv")
	if err := os.WriteFile(path, []byte("n,x,s\n1,1.5,foo\n2,2.5,bar\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := describeCSV(&got, path); err != nil {
		t.Fatal(err)
	}
	want := path + ": 2 rows × 3 columns\n\n" +
		"column,count,mean,std,min,median,max\n" +
		"n,2,1.5,0.7071067811865476,1,1.5,2\n" +
		"x,2,2,0.7071067811865476,1.5,2,2.5\n"
	if got.String() != want {
		t.Fatalf("describe output\n%s\nwant\n%s", got.String(), want)
	}
}

func TestDescribeErrors(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"empty.csv": "", "ragged.csv": "a,b\n1\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := describeCSV(&bytes.Buffer{}, path); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	if err := describeCSV(&bytes.Buffer{}, filepath.Join(dir, "absent.csv")); err == nil {
		t.Error("missing file: want an error")
	}
}
