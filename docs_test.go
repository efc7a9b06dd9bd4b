package perftrack

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// identDocs name Go identifiers as they are; EXPERIMENTS.md records past
// runs and may name what a later change removed.
var identDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// pkgIdent is pkg.Name with pkg standing alone: not the tail of a
	// path (internal/obs.go) or of a longer selector (x.obs.Name).
	pkgIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// TestDocsNameRealIdentifiers checks that every backticked pkg.Name in
// the documents, where pkg is a package under internal/ and Name is
// exported, is declared in that package: a type, function, method,
// variable or constant.
func TestDocsNameRealIdentifiers(t *testing.T) {
	declared := map[string]map[string]bool{} // by package name
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := declared[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			declared[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range identDocs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range pkgIdent.FindAllStringSubmatch(span, -1) {
					if names, ok := declared[m[1]]; ok && !names[m[2]] {
						t.Errorf("%s:%d: %s.%s is not declared in internal/%s", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}

// testName is a test, benchmark or fuzzer name standing alone; a trailing
// * or … makes it a prefix.
var testName = regexp.MustCompile(`(?:^|[^\w])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*|…)?`)

// TestDocsNameRealTests checks that every backticked Test…, Benchmark…
// or Fuzz… name in identDocs is a func of some _test.go file, or,
// written with a trailing * or …, the prefix of one.
func TestDocsNameRealTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefix bool) bool {
		for _, fn := range funcs {
			if fn == name || prefix && strings.HasPrefix(fn, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range identDocs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range testName.FindAllStringSubmatch(span, -1) {
					if !exists(m[1], m[2] != "") {
						t.Errorf("%s:%d: no _test.go file declares %s%s", doc, i+1, m[1], m[2])
					}
				}
			}
		}
	}
}

// docCaps are the most bytes each document may hold: DESIGN.md describes
// the code as it is, and EXPERIMENTS.md does not grow.
var docCaps = map[string]int64{"DESIGN.md": 70000, "EXPERIMENTS.md": 126765}

// TestDocsWithinCaps checks each capped document's size.
func TestDocsWithinCaps(t *testing.T) {
	for doc, limit := range docCaps {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d B, over its cap of %d B", doc, fi.Size(), limit)
		}
	}
}

// dirWord is a directory name as the Architecture block writes it.
var dirWord = regexp.MustCompile(`(?:^|\s)(\w+)/`)

// TestDocsArchitectureNamesEveryPackage checks that README's Architecture
// block lists every directory under internal/.
func TestDocsArchitectureNamesEveryPackage(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(data), "\n## Architecture\n")
	if !ok {
		t.Fatal("README.md has no Architecture section")
	}
	_, block, ok := strings.Cut(arch, "```\n")
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		t.Fatal("README.md's Architecture section has no code block")
	}
	listed := map[string]bool{}
	for _, m := range dirWord.FindAllStringSubmatch(block, -1) {
		listed[m[1]] = true
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !listed[d.Name()] {
			t.Errorf("README.md's Architecture block does not list internal/%s", d.Name())
		}
	}
}
