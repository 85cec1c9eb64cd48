package stats

import (
	"errors"
	"math"
)

// ErrLengthMismatch is returned when paired metric inputs differ in length.
var ErrLengthMismatch = errors.New("stats: prediction/actual length mismatch")

// RMSE returns the root-mean-squared error between predictions and actuals.
// It returns an error if the slices differ in length or are empty.
func RMSE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// MAE returns the mean absolute error between predictions and actuals.
func MAE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - actual[i])
	}
	return sum / float64(len(pred)), nil
}

// R2 returns the coefficient of determination of predictions against
// actuals: 1 - SS_res/SS_tot. A constant actual vector yields R2 = 0 when
// predictions match it exactly and -Inf otherwise is avoided by returning 0
// for zero total variance with zero residual, and negative values are
// possible for models worse than predicting the mean.
func R2(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	mean := Mean(actual)
	var ssRes, ssTot float64
	for i := range actual {
		r := actual[i] - pred[i]
		ssRes += r * r
		t := actual[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 0, nil
		}
		return math.Inf(-1), nil
	}
	return 1 - ssRes/ssTot, nil
}

// NRMSE returns the RMSE normalised by the standard deviation of the actual
// values (a scale-free error in "fractions of a standard deviation", the
// unit the paper's Figure 5 reports for BP3D).
func NRMSE(pred, actual []float64) (float64, error) {
	rmse, err := RMSE(pred, actual)
	if err != nil {
		return 0, err
	}
	sd := math.Sqrt(PopVariance(actual))
	if sd == 0 {
		return math.Inf(1), nil
	}
	return rmse / sd, nil
}
