// Package shell implements the interactive PerfTrack session behind
// cmd/ptgui — the terminal analog of the GUI in §3.2 (Figures 3–5). A
// Session reads commands from a reader and writes results to a writer,
// so the full interactive surface is testable without a terminal.
package shell

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"perftrack/internal/chart"
	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
)

// Session holds the state of one interactive analysis session: the
// pr-filter under construction (Figure 3) and the retrieved result table
// (Figure 4).
type Session struct {
	store *datastore.Store
	specs []string // family specs of the pr-filter, in the order added
	tbl   *query.Table
	out   *bufio.Writer
}

// New creates a session writing to out.
func New(store *datastore.Store, out io.Writer) *Session {
	return &Session{store: store, out: bufio.NewWriter(out)}
}

// Run reads commands from in until EOF or "quit", echoing a prompt to the
// output when prompt is true.
func (s *Session) Run(in io.Reader, prompt bool) error {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(s.out, "perftrack> ")
			s.out.Flush()
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := s.Dispatch(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
		s.out.Flush()
	}
	return s.out.Flush()
}

// Dispatch executes one command line.
func (s *Session) Dispatch(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	rest := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	switch cmd {
	case "help":
		s.help()
	case "types":
		for _, t := range s.store.Types().All() {
			fmt.Fprintln(s.out, t)
		}
	case "resources":
		if len(args) != 1 {
			return fmt.Errorf("usage: resources TYPE")
		}
		names, err := s.store.ResourcesOfType(core.TypePath(args[0]))
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(s.out, n)
		}
	case "children":
		if len(args) != 1 {
			return fmt.Errorf("usage: children NAME")
		}
		kids, err := s.store.Children(core.ResourceName(args[0]))
		if err != nil {
			return err
		}
		for _, k := range kids {
			fmt.Fprintln(s.out, k)
		}
	case "show":
		if len(args) != 1 {
			return fmt.Errorf("usage: show NAME")
		}
		res, err := s.store.ResourceByName(core.ResourceName(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s (%s)\n", res.Name, res.Type)
		for _, a := range res.AttributeNames() {
			fmt.Fprintf(s.out, "  %s = %s\n", a, res.Attributes[a])
		}
		for _, c := range res.Constraints {
			fmt.Fprintf(s.out, "  constraint -> %s\n", c)
		}
	case "detail":
		if len(args) != 1 {
			return fmt.Errorf("usage: detail EXECUTION")
		}
		d, err := s.store.ExecutionDetail(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s (%s): %d results, %d metrics, tools %s\n",
			d.Name, d.Application, d.Results, len(d.Metrics), strings.Join(d.Tools, ","))
	case "family":
		return s.addFamily(rest)
	case "families":
		res, err := s.resolve(s.specs)
		if err != nil {
			return err
		}
		for i, c := range res.Counts {
			fmt.Fprintf(s.out, "%d: %q (%d resources, %d results alone)\n",
				i, c.Spec, c.Resources, c.Matches)
		}
		fmt.Fprintf(s.out, "whole pr-filter: %d results\n", res.Len())
	case "clear":
		s.specs, s.tbl = nil, nil
		fmt.Fprintln(s.out, "cleared")
	case "fetch":
		res, err := s.resolve(s.specs)
		if err != nil {
			return err
		}
		tbl, err := query.NewTable(context.Background(), s.store, res.IDs())
		if err != nil {
			return err
		}
		s.tbl = tbl
		fmt.Fprintf(s.out, "retrieved %d results\n", len(tbl.Rows))
	case "free":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		free, err := s.tbl.FreeResources()
		if err != nil {
			return err
		}
		for _, c := range free {
			fmt.Fprintf(s.out, "%-40s %4d distinct  attrs: %s\n",
				c.Type, c.Distinct, strings.Join(c.Attributes, ", "))
		}
	case "addcol":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: addcol TYPE or addcol TYPE.ATTR")
		}
		if i := strings.LastIndexByte(args[0], '.'); i > 0 && !strings.Contains(args[0][i:], "/") {
			return s.tbl.Refine(query.Refinement{AddAttributes: args})
		}
		return s.tbl.Refine(query.Refinement{AddColumns: args})
	case "sort":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		if len(args) < 1 {
			return fmt.Errorf("usage: sort COLUMN [desc]")
		}
		s.tbl.SortBy(args[0], len(args) > 1 && args[1] == "desc")
		fmt.Fprintln(s.out, "sorted")
	case "metric":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		removed := s.tbl.FilterMetric(rest)
		fmt.Fprintf(s.out, "hid %d rows\n", removed)
	case "table":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		s.printTable(25)
	case "chart":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		if len(args) < 1 {
			return fmt.Errorf("usage: chart COLUMN [min|max|avg|sum|count]")
		}
		reducer := "avg"
		if len(args) > 1 {
			reducer = args[1]
		}
		keys, vals, err := s.tbl.GroupBy(args[0], reducer)
		if err != nil {
			return err
		}
		c := &chart.BarChart{
			Title:      fmt.Sprintf("%s(value) by %s", reducer, args[0]),
			Categories: keys,
			Series:     []chart.Series{{Name: reducer, Values: vals}},
		}
		out, err := c.RenderASCII(50)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, out)
	case "export":
		if s.tbl == nil {
			return fmt.Errorf("fetch first")
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: export FILE.csv")
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		err = s.tbl.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "wrote %s\n", args[0])
	case "import":
		if len(args) != 1 {
			return fmt.Errorf("usage: import FILE.csv")
		}
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		tbl, err := query.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		s.tbl = tbl
		fmt.Fprintf(s.out, "imported %d rows (detached: sort/filter/chart only)\n", len(tbl.Rows))
	case "compare":
		if len(args) != 2 {
			return fmt.Errorf("usage: compare EXEC_A EXEC_B")
		}
		cmp, err := compare.ExecutionsCtx(context.Background(), s.store, args[0], args[1])
		if err != nil {
			return err
		}
		sum := cmp.Summarize()
		fmt.Fprintf(s.out, "%s vs %s: %d pairs, geomean ratio %.4f, only-A %d, only-B %d\n",
			args[0], args[1], sum.Paired, sum.GeoMeanRatio, sum.OnlyA, sum.OnlyB)
		for i, f := range cmp.DiagnoseBottlenecks("", 5) {
			if i == 0 {
				fmt.Fprintln(s.out, "top bottlenecks in B:")
			}
			label := ""
			for _, r := range f.Pair.Context {
				if r.Depth() > 1 {
					label = string(r.BaseName())
				}
			}
			fmt.Fprintf(s.out, "  %-32s %-24s +%.4f (%.1f%%)\n",
				label, f.Pair.Metric, f.Delta, f.Contribution*100)
		}
	case "hist":
		if len(args) != 1 {
			return fmt.Errorf("usage: hist RESULT_ID")
		}
		id, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad result id %q", args[0])
		}
		bw, bins, ok, err := s.store.HistogramOf(id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("result %d is a scalar, not a histogram", id)
		}
		pr, err := s.store.ResultByID(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s (%s), %d bins x %gs, mean %g %s\n",
			pr.Metric, pr.Tool, len(bins), bw, pr.Value, pr.Units)
		fmt.Fprintln(s.out, chart.Sparkline(bins))
	case "stats":
		st := s.store.Stats()
		fmt.Fprintf(s.out, "executions %d, resources %d, results %d, metrics %d\n",
			st.Executions, st.Resources, st.Results, st.Metrics)
	case "sql":
		res, _, err := planner.New(s.store).Query(context.Background(), rest)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, res.FormatTable())
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// resolve evaluates the pr-filter built from the given family specs.
func (s *Session) resolve(specs []string) (*query.Resolution, error) {
	return query.Resolve(context.Background(), s.store, &query.Selection{Families: specs})
}

func (s *Session) addFamily(spec string) error {
	specs := append(s.specs, spec)
	res, err := s.resolve(specs)
	if err != nil {
		return err
	}
	s.specs = specs
	added := res.Counts[len(res.Counts)-1]
	fmt.Fprintf(s.out, "family added: %d resources, %d results alone; whole filter now matches %d\n",
		added.Resources, added.Matches, res.Len())
	return nil
}

func (s *Session) printTable(limit int) {
	cols := s.tbl.Columns()
	fmt.Fprintln(s.out, strings.Join(cols, "\t"))
	for i, row := range s.tbl.Rows {
		if i >= limit {
			fmt.Fprintf(s.out, "... %d more rows\n", len(s.tbl.Rows)-limit)
			break
		}
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = s.tbl.Cell(row, c)
		}
		fmt.Fprintln(s.out, strings.Join(cells, "\t"))
	}
}

func (s *Session) help() {
	fmt.Fprint(s.out, `commands:
  types                       list resource types
  resources TYPE              list resources of a type
  children NAME               list child resources (lazy fetch, as in the GUI)
  show NAME                   show a resource's attributes and constraints
  detail EXECUTION            execution summary report
  family SPEC                 add a resource family (type=T; name=N; base=B; rel=N|D|A|B; attr=a<op>v)
  families                    show families with live match counts (Figure 3)
  clear                       drop the current filter and table
  fetch                       retrieve matching results (Figure 4, step 1)
  free                        list free-resource column candidates (step 2)
  addcol TYPE | TYPE.ATTR     add a display column
  sort COLUMN [desc]          sort the table
  metric NAME                 keep only rows with this metric
  table                       print the table
  chart COLUMN [reducer]      ASCII bar chart (Figure 5)
  export FILE.csv             export for spreadsheets
  import FILE.csv             read an exported table back in
  compare EXEC_A EXEC_B       §6 comparison operators + bottleneck diagnosis
  hist RESULT_ID              sparkline of a histogram-valued result
  sql SELECT ...              one SELECT over the virtual catalog (physical tables as fallback)
  stats                       store statistics
  quit
`)
}
