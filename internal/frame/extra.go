package frame

import (
	"fmt"

	"banditware/internal/stats"
)

// Describe returns a summary frame with one row per numeric column:
// name, count, mean, std, min, median, max — the pandas describe()
// analogue used when inspecting traces interactively.
func (f *Frame) Describe() (*Frame, error) {
	var names []string
	var count []int64
	var mean, std, min, median, max []float64
	for _, c := range f.cols {
		if c.Kind == String {
			continue
		}
		vals := make([]float64, c.Len())
		for i := range vals {
			vals[i] = c.AsFloat(i)
		}
		s, err := stats.Summarize(vals)
		if err != nil {
			return nil, fmt.Errorf("frame: describing %q: %w", c.Name, err)
		}
		names = append(names, c.Name)
		count = append(count, int64(s.N))
		mean = append(mean, s.Mean)
		std = append(std, s.Std)
		min = append(min, s.Min)
		median = append(median, s.Median)
		max = append(max, s.Max)
	}
	return New(
		StringCol("column", names),
		IntCol("count", count),
		FloatCol("mean", mean),
		FloatCol("std", std),
		FloatCol("min", min),
		FloatCol("median", median),
		FloatCol("max", max),
	)
}
