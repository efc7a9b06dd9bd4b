package perftrack

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles describe the tools as they are. CHANGES.md and ROADMAP.md are
// history and may name tools and flags that no longer exist.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// flagDecl matches a flag declaration the way CI counts them.
	flagDecl = regexp.MustCompile(`flag\.(?:String|Int|Int64|Uint|Bool|Duration|Float64|Var)\((?:&\w+,\s*)?"([^"]+)"`)
	// ptWord is a pt-prefixed word standing alone: not part of a longer
	// identifier, file name or metric name (ptserved_plan_cache_hits,
	// irs.ptdf).
	ptWord = regexp.MustCompile(`(?:^|[^\w.-])(pt[a-z0-9]+)\b`)
	// flagUse is a -flag token; quoted arguments are removed first.
	flagUse = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	quoted  = regexp.MustCompile(`'[^']*'|"[^"]*"`)
)

// TestDocsNameRealFlags checks that every tool the documents name is a
// cmd/ directory and that every -flag written after a tool's name, up to
// the end of its code span, shell comment, pipe or the next tool, is one
// that tool declares. Words naming an internal/ package (ptdf) are not
// tools.
func TestDocsNameRealFlags(t *testing.T) {
	tools := map[string]map[string]bool{}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		flags := map[string]bool{}
		srcs, err := filepath.Glob(filepath.Join("cmd", c.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(data), -1) {
				flags[m[1]] = true
			}
		}
		tools[c.Name()] = flags
	}
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	packages := map[string]bool{}
	for _, p := range pkgs {
		packages[p.Name()] = true
	}

	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, bad := range docFlagErrors(line, tools, packages) {
				t.Errorf("%s:%d: %s", doc, i+1, bad)
			}
		}
	}
}

// docFlagErrors returns what line names that does not exist.
func docFlagErrors(line string, tools map[string]map[string]bool, packages map[string]bool) []string {
	var bad []string
	words := ptWord.FindAllStringSubmatchIndex(line, -1)
	for i, w := range words {
		name := line[w[2]:w[3]]
		flags, ok := tools[name]
		if !ok {
			if !packages[name] {
				bad = append(bad, name+" has no cmd/"+name)
			}
			continue
		}
		rest := line[w[3]:]
		if i+1 < len(words) {
			rest = line[w[3]:words[i+1][2]]
		}
		if cut := strings.IndexAny(rest, "|`#"); cut >= 0 {
			rest = rest[:cut]
		}
		for _, f := range flagUse.FindAllStringSubmatch(quoted.ReplaceAllString(rest, ""), -1) {
			if !flags[f[1]] {
				bad = append(bad, name+" has no -"+f[1]+" flag")
			}
		}
	}
	return bad
}
