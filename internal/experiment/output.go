package experiment

import (
	"fmt"
	"io"
	"strings"
)

// WriteRoundsCSV writes the per-round aggregates in the column layout
// the paper's figures plot (round, rmse mean/std, accuracy mean/std).
func WriteRoundsCSV(w io.Writer, res *BanditResult) error {
	if _, err := fmt.Fprintln(w, "round,rmse_mean,rmse_std,acc_mean,acc_std"); err != nil {
		return err
	}
	for _, r := range res.Rounds {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g\n",
			r.Round, r.RMSEMean, r.RMSEStd, r.AccMean, r.AccStd); err != nil {
			return err
		}
	}
	return nil
}

// WriteFitCSV writes fit-overlay series in long form.
func WriteFitCSV(w io.Writer, series []FitSeries, feature string) error {
	if _, err := fmt.Fprintf(w, "hardware,%s,actual,predicted,full_fit\n", feature); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g,%g,%g\n",
				s.ArmName, s.X[i], s.Actual[i], s.Predicted[i], s.FullFit[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSweepCSV writes a policy sweep.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	if _, err := fmt.Fprintln(w, "policy,final_accuracy,mean_regret_s,total_runtime_s,total_reward,mean_chosen_cost"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%g,%g,%g,%g,%g\n",
			r.Policy, r.FinalAccuracy, r.MeanRegret, r.TotalRuntime, r.TotalReward, r.MeanChosenCost); err != nil {
			return err
		}
	}
	return nil
}

// MarkdownRounds renders selected rounds as a Markdown table for
// EXPERIMENTS.md (every round would be noise; pick holds the rounds to
// include, nil meaning {1, 5, 10, 25, 50, last}).
func MarkdownRounds(res *BanditResult, pick []int) string {
	if pick == nil {
		pick = []int{1, 5, 10, 25, 50, len(res.Rounds)}
	}
	var b strings.Builder
	b.WriteString("| round | RMSE (mean ± std) | accuracy (mean ± std) |\n")
	b.WriteString("|---|---|---|\n")
	seen := map[int]bool{}
	for _, r := range pick {
		if r < 1 || r > len(res.Rounds) || seen[r] {
			continue
		}
		seen[r] = true
		st := res.Rounds[r-1]
		fmt.Fprintf(&b, "| %d | %.4g ± %.4g | %.3f ± %.3f |\n",
			st.Round, st.RMSEMean, st.RMSEStd, st.AccMean, st.AccStd)
	}
	fmt.Fprintf(&b, "\nBaseline (full fit): RMSE %.4g, accuracy %.3f; random accuracy %.3f.\n",
		res.BaselineRMSE, res.BaselineAccuracy, res.RandomAccuracy)
	return b.String()
}
