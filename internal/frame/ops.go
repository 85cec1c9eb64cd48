package frame

import "fmt"

// Filter returns the rows for which keep returns true, preserving order.
func (f *Frame) Filter(keep func(Row) bool) *Frame {
	var idx []int
	for i := 0; i < f.NumRows(); i++ {
		if keep(f.RowAt(i)) {
			idx = append(idx, i)
		}
	}
	return f.Take(idx)
}

// Concat appends the rows of other to f. Both frames must have identical
// column names, kinds, and order.
func Concat(f, other *Frame) (*Frame, error) {
	if f.NumCols() != other.NumCols() {
		return nil, fmt.Errorf("%w: %d vs %d columns", ErrLength, f.NumCols(), other.NumCols())
	}
	out := &Frame{index: map[string]int{}}
	for i, c := range f.cols {
		oc := other.cols[i]
		if oc.Name != c.Name || oc.Kind != c.Kind {
			return nil, fmt.Errorf("frame: Concat column %d mismatch (%s/%v vs %s/%v)",
				i, c.Name, c.Kind, oc.Name, oc.Kind)
		}
		nc := &Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case Float:
			nc.Floats = append(append([]float64(nil), c.Floats...), oc.Floats...)
		case Int:
			nc.Ints = append(append([]int64(nil), c.Ints...), oc.Ints...)
		default:
			nc.Strings = append(append([]string(nil), c.Strings...), oc.Strings...)
		}
		if err := out.AddColumn(nc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
