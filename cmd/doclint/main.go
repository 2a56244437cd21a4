// Command doclint enforces the repository's documentation floor: every
// package (public and internal alike) must carry a package comment, and
// every exported top-level symbol — functions, methods on exported types,
// types, constants and variables — must carry a doc comment. CI runs it on
// the clean tree, so any regression fails the build:
//
//	go run ./cmd/doclint ./...
//
// With -metrics DESIGN.md it additionally cross-checks the telemetry
// surface: every metric name registered in the source with a string
// literal (reg.Counter("..."), .Gauge, .Histogram) must appear verbatim
// in the named document, so the metrics reference can never fall behind
// the code.
//
// It also holds the documents in the working directory (DESIGN.md,
// README.md, EXPERIMENTS.md) to the tests they cite: a Test…, Benchmark…
// or Fuzz… name in code (inline or fenced) must equal, or be a prefix of,
// a function in some _test.go file under the linted tree, so a -run
// pattern like TestEndpointMigration stays valid and a deleted test's
// name does not. A subtest path (TestAllExperimentsQuick/fig16) is checked
// by its function.
//
// Arguments are directories (or the literal ./... to walk the whole
// module); _test.go files and testdata directories are skipped. Exit
// status is 1 when any symbol is missing documentation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	metricsDoc := flag.String("metrics", "", "document that must mention every registered metric name")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs, roots []string
	for _, a := range args {
		if strings.HasSuffix(a, "...") {
			root := strings.TrimSuffix(strings.TrimSuffix(a, "..."), string(filepath.Separator))
			if root == "" {
				root = "."
			}
			roots = append(roots, root)
			sub, err := walkDirs(root)
			if err != nil {
				fmt.Fprintln(os.Stderr, "doclint:", err)
				os.Exit(2)
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, a)
		roots = append(roots, a)
	}
	sort.Strings(dirs)

	failed := false
	for _, dir := range dirs {
		for _, problem := range lintDir(dir) {
			fmt.Println(problem)
			failed = true
		}
	}
	if *metricsDoc != "" {
		for _, problem := range lintMetrics(dirs, *metricsDoc) {
			fmt.Println(problem)
			failed = true
		}
	}
	for _, problem := range lintTestNames(roots, []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}) {
		fmt.Println(problem)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// testName matches a test, benchmark or fuzz function name; inlineCode an
// inline code span.
var (
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	inlineCode = regexp.MustCompile("`[^`\n]+`")
)

// lintTestNames reports each test name the docs cite in code (inline, or
// in a fenced block) that neither names nor prefixes a function of a
// _test.go file under roots.
func lintTestNames(roots, docs []string) []string {
	var funcs []string
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					funcs = append(funcs, fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			return []string{fmt.Sprintf("doclint: %v", err)}
		}
	}
	var problems []string
	for _, doc := range docs {
		text, _ := os.ReadFile(doc) // a missing document cites nothing
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			code := inlineCode.FindAllString(line, -1)
			if fenced {
				code = []string{line}
			}
		names:
			for _, name := range testName.FindAllString(strings.Join(code, " "), -1) {
				for _, f := range funcs {
					if strings.HasPrefix(f, name) {
						continue names
					}
				}
				problems = append(problems, fmt.Sprintf("%s:%d: %s names no test function", doc, i+1, name))
			}
		}
	}
	return problems
}

// lintMetrics collects every metric name registered with a string
// literal — a call of the form x.Counter("name"), x.Gauge("name"), or
// x.Histogram("name") in any non-test file under dirs — and reports the
// ones the documentation file never mentions.
func lintMetrics(dirs []string, docPath string) []string {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return []string{fmt.Sprintf("doclint: -metrics: %v", err)}
	}
	text := string(doc)
	type site struct {
		pos  token.Position
		name string
	}
	var sites []site
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", dir, err)}
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "Counter", "Gauge", "Histogram":
					default:
						return true
					}
					lit, ok := call.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					name, err := strconv.Unquote(lit.Value)
					if err != nil || name == "" {
						return true
					}
					sites = append(sites, site{fset.Position(lit.Pos()), name})
					return true
				})
			}
		}
	}
	seen := map[string]bool{}
	var problems []string
	for _, s := range sites {
		if seen[s.name] {
			continue
		}
		seen[s.name] = true
		if !strings.Contains(text, s.name) {
			problems = append(problems, fmt.Sprintf("%s: metric %q is registered but not documented in %s",
				s.pos, s.name, docPath))
		}
	}
	sort.Strings(problems)
	return problems
}

// walkDirs returns every directory under root that contains non-test Go
// files, skipping hidden and testdata directories.
func walkDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	return dirs, err
}

// lintDir parses one package directory and returns its problems.
func lintDir(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var problems []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		// Deterministic file order for stable output.
		var names []string
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			problems = append(problems, lintFile(fset, pkg.Files[name])...)
		}
	}
	return problems
}

// lintFile reports exported top-level symbols missing doc comments.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	missing := func(pos token.Pos, what, name string) {
		problems = append(problems, fmt.Sprintf("%s: %s %s is exported but has no doc comment",
			fset.Position(pos), what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			name := d.Name.Name
			if d.Recv != nil {
				recv := receiverTypeName(d.Recv)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type: internal API
				}
				what = "method"
				name = recv + "." + name
			}
			missing(d.Pos(), what, name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil && ts.Comment == nil {
						missing(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A doc comment on the grouped declaration covers every
				// spec inside it; otherwise each exported spec needs its
				// own (a trailing line comment also counts).
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							kind := "constant"
							if d.Tok == token.VAR {
								kind = "variable"
							}
							missing(n.Pos(), kind, n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverTypeName extracts the base type name of a method receiver.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
