package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"perftrack/internal/ptdf"
)

func corpusHash(seed int64) string {
	c := Generate(seed, 3)
	h := sha256.New()
	h.Write(SharedDoc())
	for i := range c.Execs {
		h.Write(c.ExecDoc(i))
	}
	h.Write(c.SmallDoc(0))
	h.Write(c.SmallDoc(7))
	return hex.EncodeToString(h.Sum(nil))
}

// The generator takes only the seed: the same seed must give the same
// bytes on every host and in every later commit (a benchmark whose inputs
// drift cannot compare two commits), so the hash is pinned.
func TestSameSeedSameBytes(t *testing.T) {
	const pinned = "3d1185eead69c5219af6d1612bb8f4422e083c7c147d97eb61d37c0f59673d97"
	if got := corpusHash(1); got != pinned {
		t.Errorf("corpus for seed 1 hashes to %s, pinned %s", got, pinned)
	}
	if corpusHash(1) != corpusHash(1) {
		t.Error("two generations with one seed differ")
	}
	if corpusHash(2) == corpusHash(1) {
		t.Error("seeds 1 and 2 generate the same bytes")
	}
}

func records(t *testing.T, doc []byte) []ptdf.Record {
	t.Helper()
	var out []ptdf.Record
	r := ptdf.NewReader(bytes.NewReader(doc))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("generated PTdf does not parse: %v", err)
		}
		out = append(out, rec)
	}
}

// The oracle's product-form counts must agree with a brute-force match
// of every family against every generated result's context.
func TestCountAgreesWithBruteForce(t *testing.T) {
	c := Generate(3, 5)
	type result struct{ resources []string }
	var results []result
	for i := range c.Execs {
		recs := records(t, c.ExecDoc(i))
		n := 0
		for _, rec := range recs {
			if pr, ok := rec.(ptdf.PerfResultRec); ok {
				n++
				var names []string
				for _, set := range pr.Sets {
					for _, r := range set.Names {
						names = append(names, string(r))
					}
				}
				results = append(results, result{names})
			}
		}
		if n != Full.Results() {
			t.Fatalf("doc %d holds %d results, want %d", i, n, Full.Results())
		}
	}
	execsWith := func(pred func(*Exec) bool) map[string]bool {
		out := map[string]bool{}
		for _, e := range c.Execs {
			if pred(e) {
				out["/"+e.Name] = true
			}
		}
		return out
	}
	// member reports whether a context resource belongs to a family, by
	// an independent reading of the family's spec.
	member := func(f Family, res string) bool {
		spec := f.Spec
		switch {
		case strings.HasPrefix(spec, "name="):
			root := strings.TrimPrefix(spec, "name=")
			return res == root || strings.HasPrefix(res, root+"/")
		case strings.HasPrefix(spec, "base="):
			base := strings.TrimSuffix(strings.TrimPrefix(spec, "base="), ";rel=N")
			return res[strings.LastIndexByte(res, '/')+1:] == base
		case spec == "type=execution;attr=compiler=-O0":
			roots := execsWith(func(e *Exec) bool { return e.Compiler == "-O0" })
			return roots[res[:strings.Index(res[1:], "/")+1]]
		}
		t.Fatalf("no brute-force reading of %q", spec)
		return false
	}
	brute := func(fams ...Family) int {
		n := 0
		for _, r := range results {
			all := true
			for _, f := range fams {
				any := false
				for _, res := range r.resources {
					any = any || member(f, res)
				}
				all = all && any
			}
			if all {
				n++
			}
		}
		return n
	}
	cases := [][]Family{
		{c.FamExec(2)},
		{c.FamMachine(1)},
		{c.FamNode(0, 3), c.FamFunc(5)},
		{c.FamExec(4), c.FamFunc(1), c.FamProc(63)},
		{c.FamModule(1), c.FamMachine(0)},
		{c.FamAttr("compiler", "-O0"), c.FamNode(1, 7), c.FamFunc(0)},
		{c.FamNode(0, 1), c.FamNode(1, 1)},
	}
	for _, fams := range cases {
		var specs []string
		for _, f := range fams {
			specs = append(specs, f.Spec)
		}
		if got, want := c.Count(fams...), brute(fams...); got != want {
			t.Errorf("Count(%v) = %d, brute force says %d", specs, got, want)
		}
	}
}

func TestAggregatesAgreeWithScan(t *testing.T) {
	c := Generate(9, 3)
	const threshold = 47.25
	byMetric := c.AboveByMetric(threshold)
	for m := 0; m < Full.Metrics; m++ {
		var want Agg
		for _, e := range c.Execs {
			for j, v := range e.Values {
				if j%Full.Metrics == m && v > threshold {
					want.Count++
					want.Sum += v
				}
			}
		}
		if got := byMetric[m]; got.Count != want.Count || got.Sum < want.Sum*(1-1e-12) || got.Sum > want.Sum*(1+1e-12) {
			t.Errorf("metric %d above %v: %+v, scan says count %d sum %v", m, threshold, got, want.Count, want.Sum)
		}
	}
	for i, got := range c.AboveByExec(threshold) {
		n := 0
		for _, v := range c.Execs[i].Values {
			if v > threshold {
				n++
			}
		}
		if got.Count != n {
			t.Errorf("execution %d above %v: count %d, scan says %d", i, threshold, got.Count, n)
		}
	}
}

// doc_small must stay clear of everything the read mix asks about.
func TestSmallDocIsInvisibleToReads(t *testing.T) {
	c := Generate(1, 2)
	for _, rec := range records(t, c.SmallDoc(3)) {
		switch r := rec.(type) {
		case ptdf.PerfResultRec:
			if r.Value >= SmallMax || r.Value >= MinThreshold {
				t.Fatalf("doc_small value %v is not below %v", r.Value, SmallMax)
			}
			for _, set := range r.Sets {
				for _, name := range set.Names {
					s := string(name)
					base := s[strings.LastIndexByte(s, '/')+1:]
					onFullMachine := strings.HasPrefix(s, "/G") && !strings.HasPrefix(s, machineName(Machines)+"/")
					if strings.HasPrefix(s, "/bld/") || strings.HasPrefix(base, "p") || onFullMachine {
						t.Fatalf("doc_small context names %s, which the full executions' filters select", s)
					}
				}
			}
		case ptdf.ResourceAttributeRec:
			if r.Attr != "origin" {
				t.Fatalf("doc_small carries attribute %q, which the read mix asks about", r.Attr)
			}
		}
	}
}
