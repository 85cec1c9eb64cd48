// Package frame implements a small columnar dataframe: typed columns
// (float64, int64, string), CSV input/output with type inference, and the
// operations the BanditWare input pipeline needs — select, filter, take,
// concatenation and a numeric summary. It is the stand-in
// for the pandas DataFrame the paper feeds to its framework (Figure 1).
package frame

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates column element types.
type Kind int

const (
	Float Kind = iota
	Int
	String
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors shared by frame operations.
var (
	ErrNoColumn  = errors.New("frame: no such column")
	ErrKind      = errors.New("frame: wrong column kind")
	ErrLength    = errors.New("frame: column length mismatch")
	ErrDupColumn = errors.New("frame: duplicate column name")
)

// Column is a named, typed vector. Exactly one of the value slices is
// non-nil, matching Kind.
type Column struct {
	Name    string
	Kind    Kind
	Floats  []float64
	Ints    []int64
	Strings []string
}

// Len returns the number of elements in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case Float:
		return len(c.Floats)
	case Int:
		return len(c.Ints)
	default:
		return len(c.Strings)
	}
}

// AsFloat returns element i coerced to float64 (ints convert; strings
// return NaN). Used when feeding mixed frames into numeric models.
func (c *Column) AsFloat(i int) float64 {
	switch c.Kind {
	case Float:
		return c.Floats[i]
	case Int:
		return float64(c.Ints[i])
	default:
		return math.NaN()
	}
}

// cell returns element i as a comparable key for joins/group-by.
func (c *Column) cell(i int) string {
	switch c.Kind {
	case Float:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	case Int:
		return strconv.FormatInt(c.Ints[i], 10)
	default:
		return c.Strings[i]
	}
}

// format renders element i for CSV output.
func (c *Column) format(i int) string { return c.cell(i) }

// slice returns a column holding only the rows in idx, preserving order.
func (c *Column) slice(idx []int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case Float:
		out.Floats = make([]float64, len(idx))
		for j, i := range idx {
			out.Floats[j] = c.Floats[i]
		}
	case Int:
		out.Ints = make([]int64, len(idx))
		for j, i := range idx {
			out.Ints[j] = c.Ints[i]
		}
	default:
		out.Strings = make([]string, len(idx))
		for j, i := range idx {
			out.Strings[j] = c.Strings[i]
		}
	}
	return out
}

// FloatCol constructs a float column.
func FloatCol(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: Float, Floats: vals}
}

// IntCol constructs an int column.
func IntCol(name string, vals []int64) *Column {
	return &Column{Name: name, Kind: Int, Ints: vals}
}

// StringCol constructs a string column.
func StringCol(name string, vals []string) *Column {
	return &Column{Name: name, Kind: String, Strings: vals}
}

// Frame is an ordered collection of equal-length columns.
type Frame struct {
	cols  []*Column
	index map[string]int
}

// New builds a frame from columns. All columns must have equal length and
// distinct names.
func New(cols ...*Column) (*Frame, error) {
	f := &Frame{index: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := f.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// AddColumn appends a column; its length must match existing columns.
func (f *Frame) AddColumn(c *Column) error {
	if _, dup := f.index[c.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDupColumn, c.Name)
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("%w: column %q has %d rows, frame has %d",
			ErrLength, c.Name, c.Len(), f.NumRows())
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the number of rows (0 for a frame with no columns).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Column returns the named column or ErrNoColumn.
func (f *Frame) Column(name string) (*Column, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	return f.cols[i], nil
}

// Floats returns the named column's float data, coercing an int column.
// It returns ErrKind for string columns.
func (f *Frame) Floats(name string) ([]float64, error) {
	c, err := f.Column(name)
	if err != nil {
		return nil, err
	}
	switch c.Kind {
	case Float:
		return c.Floats, nil
	case Int:
		out := make([]float64, len(c.Ints))
		for i, v := range c.Ints {
			out[i] = float64(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %q is %v", ErrKind, name, c.Kind)
	}
}

// Select returns a new frame with only the named columns, in the given
// order. The returned frame shares column storage with f.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := &Frame{index: make(map[string]int, len(names))}
	for _, n := range names {
		c, err := f.Column(n)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Take returns a new frame holding the rows of f at the given indices, in
// order. Indices may repeat.
func (f *Frame) Take(idx []int) *Frame {
	out := &Frame{index: make(map[string]int, len(f.cols))}
	for _, c := range f.cols {
		// AddColumn cannot fail here: names are unique and lengths equal.
		_ = out.AddColumn(c.slice(idx))
	}
	return out
}

// Row is a cursor over one row of a frame.
type Row struct {
	f *Frame
	i int
}

// RowAt returns a cursor for row i.
func (f *Frame) RowAt(i int) Row { return Row{f: f, i: i} }

// Float returns the named cell coerced to float64 (NaN for strings or
// missing columns).
func (r Row) Float(name string) float64 {
	c, err := r.f.Column(name)
	if err != nil {
		return math.NaN()
	}
	return c.AsFloat(r.i)
}

// String returns the named cell rendered as a string ("" for missing).
func (r Row) String(name string) string {
	c, err := r.f.Column(name)
	if err != nil {
		return ""
	}
	return c.cell(r.i)
}

// Index returns the row index of the cursor.
func (r Row) Index() int { return r.i }
