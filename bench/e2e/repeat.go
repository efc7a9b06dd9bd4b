package main

import "fmt"

// selfAgreement runs sets full sets back to back on the same seed (each
// set is a complete timed run of the selected workloads: three
// interleaved replicates, medianed; every set sends byte-identical
// requests, so what differs between sets is the host and nothing else)
// and prints, per workload and end-to-end metric, every set's value, the
// median, the inter-quartile distance as a share of the median, and the
// bound — flagging each cell whose spread exceeds its bound. The ungated
// timing metrics are held against the tenth they would have to repeat
// within to be gated. It is the tool for checking that the benchmark
// agrees with itself, and for re-baselining on new hardware.
func (rn *runner) selfAgreement(selected []workload, seed int64, seconds, sets int) (failed int, err error) {
	plans := make([]*plan, len(selected))
	for i, w := range selected {
		plans[i] = newPlan(w, rn.sz, seed, seconds, 1)
	}
	perCell := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for s := 0; s < sets; s++ {
		logf("set %d of %d", s+1, sets)
		runs, err := rn.runSet(plans, replicates, logf)
		if err != nil {
			return failed, err
		}
		for _, wr := range runs {
			_, f, failures := wr.counts()
			failed += f
			for _, msg := range failures {
				logf("FAILED %s: %s", wr.plan.w.name, msg)
			}
			cells := perCell[wr.plan.w.name]
			if cells == nil {
				cells = map[string][]float64{}
				perCell[wr.plan.w.name] = cells
			}
			for name, v := range wr.metricsOf() {
				cells[name] = append(cells[name], v)
			}
		}
	}
	fmt.Printf("self-agreement over %d sets, seed %d, %d s\n", sets, seed, seconds)
	fmt.Printf("%-18s %-26s %10s %8s %-13s  %s\n", "workload", "metric", "median", "iqr", "bound", "sets")
	for _, w := range selected {
		row := func(d metricDef, gated bool) {
			vals := perCell[w.name][d.Name]
			spread := iqrShare(vals)
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if !gated {
				bound += " (ungated)"
			}
			flag := ""
			if spread > d.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
			}
			fmt.Printf("%-18s %-26s %10.4f %7.2f%% %-13s  %s%s\n",
				w.name, d.Name, median(vals), spread*100, bound, formatVals(vals), flag)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		for _, d := range timing {
			row(d, false)
		}
	}
	return failed, nil
}

func formatVals(vals []float64) string {
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", v)
	}
	return out
}
