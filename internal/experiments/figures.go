package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"perftrack/internal/chart"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/irs"
	"perftrack/internal/model"
	"perftrack/internal/paradyn"
	"perftrack/internal/ptdf"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

// Fig5Store builds the store behind Figure 5: IRS runs at increasing
// process counts on one machine, so min/max per-function wall time across
// processors can be charted as a load-balance indicator.
func Fig5Store(processCounts []int, seed int64) (*datastore.Store, error) {
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return nil, err
	}
	m, err := gen.MachineByName("Frost")
	if err != nil {
		return nil, err
	}
	if err := commit(s, m.ToPTdf(2)); err != nil {
		return nil, err
	}
	// One batch per execution, its nprocs attribute included.
	for i, np := range processCounts {
		execName := fmt.Sprintf("irs-np%03d", np)
		rep, err := generateIRSReport(irs.Run{Execution: execName, NProcs: np, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		recs := append(rep.ToPTdf("irs", m.Res()), ptdf.ResourceAttributeRec{
			Resource: core.ResourceName("/" + execName), Attr: "nprocs",
			Value: strconv.Itoa(np), AttrType: "string",
		})
		if err := commit(s, recs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func generateIRSReport(run irs.Run) (*irs.Report, error) {
	var b strings.Builder
	if err := irs.Generate(&b, run); err != nil {
		return nil, err
	}
	return irs.Parse(strings.NewReader(b.String()))
}

// Fig5 regenerates Figure 5: the minimum and maximum running time of one
// function across all processors, for different process counts.
func Fig5(s *datastore.Store, function string, processCounts []int) (*chart.BarChart, error) {
	ctx := context.TODO()
	fnFam, err := s.ApplyFilterCtx(ctx, core.ResourceFilter{
		Name: core.ResourceName("/irs-code/irs.c/" + function),
	})
	if err != nil {
		return nil, err
	}
	if fnFam.Size() == 0 {
		return nil, fmt.Errorf("experiments: no resource for function %q", function)
	}
	tbl, err := query.RetrieveCtx(ctx, s, core.PRFilter{Families: []core.Family{fnFam}})
	if err != nil {
		return nil, err
	}
	if err := tbl.AddAttributeColumn("execution", "nprocs"); err != nil {
		return nil, err
	}
	c := &chart.BarChart{
		Title:  fmt.Sprintf("Min/max running time of %s across processors", function),
		XLabel: "process count",
		YLabel: "seconds",
	}
	for _, np := range processCounts {
		c.Categories = append(c.Categories, fmt.Sprintf("%d", np))
	}
	for _, metric := range []string{"WallTime min", "WallTime max"} {
		sub := *tbl
		sub.Rows = append([]*query.Row{}, tbl.Rows...)
		sub.FilterMetric(metric)
		keys, vals, err := sub.GroupBy("execution.nprocs", "avg")
		if err != nil {
			return nil, err
		}
		byNP := make(map[string]float64, len(keys))
		for i, k := range keys {
			byNP[k] = vals[i]
		}
		series := chart.Series{Name: strings.TrimPrefix(metric, "WallTime ")}
		for _, cat := range c.Categories {
			series.Values = append(series.Values, byNP[cat])
		}
		c.Series = append(c.Series, series)
	}
	return c, nil
}

// ModelDemo exercises the §6 prediction workflow end to end against a
// Fig5-style store: fit a scaling model to a function's measured average
// wall times across process counts, store its predictions as tool
// "model" results, and report fit quality plus per-count model-vs-actual
// ratios.
func ModelDemo(s *datastore.Store, function string, processCounts []int) (string, error) {
	fnRes := core.ResourceName("/irs-code/irs.c/" + function)
	ctx := context.TODO()
	fnFam, err := s.ApplyFilterCtx(ctx, core.ResourceFilter{Name: fnRes})
	if err != nil {
		return "", err
	}
	if fnFam.Size() == 0 {
		return "", fmt.Errorf("experiments: no resource for function %q", function)
	}
	tbl, err := query.RetrieveCtx(ctx, s, core.PRFilter{Families: []core.Family{fnFam}})
	if err != nil {
		return "", err
	}
	tbl.FilterMetric("WallTime average")
	if err := tbl.AddAttributeColumn("execution", "nprocs"); err != nil {
		return "", err
	}
	keys, vals, err := tbl.GroupBy("execution.nprocs", "avg")
	if err != nil {
		return "", err
	}
	var points []model.Point
	actual := map[int]float64{}
	for i, k := range keys {
		np, err := strconv.Atoi(k)
		if err != nil {
			continue
		}
		points = append(points, model.Point{Procs: np, Value: vals[i]})
		actual[np] = vals[i]
	}
	m, err := model.FitScaling(points)
	if err != nil {
		return "", err
	}
	// Store the predictions so the comparison operators can see them.
	preds := m.PredictRange(processCounts)
	recs := model.ToPTdf("irs", "model-"+function, "WallTime average", "seconds",
		[]core.ResourceName{fnRes}, preds)
	if err := commit(s, recs); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling model for %s (WallTime average):\n  %s\n  R^2 = %.4f on %d points\n\n",
		function, m, m.R2(points), len(points))
	fmt.Fprintf(&b, "%8s %12s %12s %8s\n", "procs", "actual", "model", "ratio")
	for _, pr := range preds {
		a, ok := actual[pr.Procs]
		ratio := "-"
		actStr := "-"
		if ok {
			actStr = fmt.Sprintf("%.4f", a)
			if a != 0 {
				ratio = fmt.Sprintf("%.3f", pr.Value/a)
			}
		}
		fmt.Fprintf(&b, "%8d %12s %12.4f %8s\n", pr.Procs, actStr, pr.Value, ratio)
	}
	return b.String(), nil
}

// Fig2BaseTypes renders the Figure 2 base resource types as loaded in a
// live store.
func Fig2BaseTypes(s *datastore.Store) string {
	ts := s.Types()
	var b strings.Builder
	b.WriteString("PerfTrack base resource types (Figure 2)\n\n")
	b.WriteString("Hierarchical:\n")
	var flats []core.TypePath
	for _, root := range ts.Roots() {
		kids := ts.Children(root)
		if len(kids) == 0 {
			flats = append(flats, root)
			continue
		}
		path := root
		chain := []string{string(root)}
		for len(kids) > 0 {
			path = kids[0]
			chain = append(chain, path.Leaf())
			kids = ts.Children(path)
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(chain, " / "))
	}
	b.WriteString("Non-hierarchical:\n")
	for _, f := range flats {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Fig10Hierarchy renders Paradyn's resource type hierarchy.
func Fig10Hierarchy() string {
	h := paradyn.Hierarchy()
	roots := make([]string, 0, len(h))
	for r := range h {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	var b strings.Builder
	b.WriteString("Paradyn resource type hierarchy (Figure 10)\n\n")
	for _, r := range roots {
		fmt.Fprintf(&b, "  %s / %s\n", r, strings.Join(h[r], " / "))
	}
	return b.String()
}

// Fig11Mapping renders the Paradyn-to-PerfTrack type mapping with worked
// examples.
func Fig11Mapping() string {
	examples := []string{
		"/Code/irs.c",
		"/Code/irs.c/main",
		"/Code/irs.c/main/loop1",
		"/Code/DEFAULT_MODULE/__builtin_memcpy",
		"/Machine/mcr123/irs{1234}",
		"/Machine/mcr123/irs{1234}/thr_1",
		"/SyncObject/Message",
		"/SyncObject/Message/MPI_COMM_WORLD",
	}
	var b strings.Builder
	b.WriteString("Integration of Paradyn data into the PerfTrack type hierarchy (Figure 11)\n\n")
	fmt.Fprintf(&b, "New PerfTrack types added: ")
	var names []string
	for _, t := range paradyn.NewTypes() {
		names = append(names, string(t))
	}
	fmt.Fprintf(&b, "%s\n\n", strings.Join(names, ", "))
	fmt.Fprintf(&b, "%-44s %-36s %s\n", "Paradyn resource", "PerfTrack resource", "PerfTrack type")
	for _, pd := range examples {
		m, err := paradyn.MapResource(pd, "irs-001")
		if err != nil {
			fmt.Fprintf(&b, "%-44s ERROR: %v\n", pd, err)
			continue
		}
		extra := ""
		if len(m.Attributes) > 0 {
			var parts []string
			for k, v := range m.Attributes {
				parts = append(parts, k+"="+v)
			}
			sort.Strings(parts)
			extra = "  [" + strings.Join(parts, " ") + "]"
		}
		fmt.Fprintf(&b, "%-44s %-36s %s%s\n", pd, m.Name, m.Type, extra)
	}
	return b.String()
}
