package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// moduleRootForTest locates the checked-out module source, or skips:
// installed-package test runs have no tree to lint.
func moduleRootForTest(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if ok {
		if _, err := os.Stat(self); err == nil {
			if root := FindModuleRoot(filepath.Dir(self)); root != "" {
				return root
			}
		}
	}
	if cwd, err := os.Getwd(); err == nil {
		if root := FindModuleRoot(cwd); root != "" {
			return root
		}
	}
	t.Skip("module source tree not available; skipping source-dependent lint test")
	return ""
}

// sharedImporter caches stdlib type-checking across fixture loads.
var sharedFixture struct {
	fset *token.FileSet
	imp  *moduleImporter
}

// loadFixture parses testdata/src/<name> under the fake import path
// `as`, type-checking it when typed is set (fixture imports are stdlib
// only, so this works without a go.mod of its own).
func loadFixture(t *testing.T, name, as string, typed bool) *Package {
	t.Helper()
	root := moduleRootForTest(t)
	if sharedFixture.fset == nil {
		sharedFixture.fset = token.NewFileSet()
		sharedFixture.imp = newModuleImporter(root, "repro", sharedFixture.fset)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", name)
	files, err := parseDir(sharedFixture.fset, dir)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", name, err)
	}
	pkg := &Package{Path: as, Dir: dir, Fset: sharedFixture.fset, Files: files}
	if typed {
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: sharedFixture.imp}
		if _, err := conf.Check(as, sharedFixture.fset, files, info); err != nil {
			t.Fatalf("type-checking fixture %s: %v", name, err)
		}
		pkg.Info = info
	}
	return pkg
}

var wantRE = regexp.MustCompile("// want (.+)$")
var wantArgRE = regexp.MustCompile("`([^`]*)`")

// wantsIn extracts the `// want` expectations per line of every fixture
// file.
func wantsIn(t *testing.T, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	wants := map[string]map[int][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		fname := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(fname)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRE.FindAllStringSubmatch(m[1], -1)
			if args == nil {
				t.Fatalf("%s:%d: malformed want comment %q", fname, i+1, line)
			}
			if wants[fname] == nil {
				wants[fname] = map[int][]*regexp.Regexp{}
			}
			for _, a := range args {
				wants[fname][i+1] = append(wants[fname][i+1], regexp.MustCompile(a[1]))
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a fixture and compares its
// diagnostics against the fixture's want comments, both directions.
// It returns every diagnostic (all analyzers' plus pragma reports) for
// tests that assert beyond the wants.
func checkFixture(t *testing.T, name, as string, typed bool, an *Analyzer) []Diagnostic {
	t.Helper()
	pkg := loadFixture(t, name, as, typed)
	all := RunAnalyzers(pkg, DefaultConfig(), []*Analyzer{an})
	wants := wantsIn(t, pkg)
	matched := map[*regexp.Regexp]bool{}
	for _, d := range all {
		if d.Analyzer != an.Name {
			continue
		}
		ok := false
		for _, re := range wants[d.File][d.Line] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for fname, lines := range wants {
		for line, res := range lines {
			for _, re := range res {
				if !matched[re] {
					t.Errorf("%s:%d: no %s diagnostic matched want `%s`", fname, line, an.Name, re)
				}
			}
		}
	}
	return all
}

// TestAnalyzerFixtures is the positive/negative matrix: each analyzer
// has a fixture that fails without its check and passes with it.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		as      string
		typed   bool
		an      *Analyzer
	}{
		{"walltime", "repro/internal/walltime", true, walltimeAnalyzer},
		{"globalrand", "repro/internal/globalrand", true, globalrandAnalyzer},
		{"maporder", "repro/internal/maporder", true, maporderAnalyzer},
		{"rawconc", "repro/internal/rawconc", true, rawconcAnalyzer},
		{"stablesort", "repro/internal/stablesort", true, stablesortAnalyzer},
		{"layering", "repro/internal/machine", false, layeringAnalyzer},
		{"layering_trace", "repro/internal/trace", false, layeringAnalyzer},
		{"layering_unknown", "repro/internal/mystery", false, layeringAnalyzer},
		{"carefulref", "repro/internal/carefulref", true, carefulrefAnalyzer},
		{"rpctaint", "repro/internal/rpctaint", true, rpctaintAnalyzer},
		{"errdrop", "repro/internal/errdrop", true, errdropAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			checkFixture(t, tc.fixture, tc.as, tc.typed, tc.an)
		})
	}
}

// TestAllowlists proves the configured exemptions silence the checks:
// the same fixtures that fail as model packages are clean when loaded
// under an allowlisted (or out-of-scope) import path.
func TestAllowlists(t *testing.T) {
	cases := []struct {
		fixture string
		as      string
		typed   bool
		an      *Analyzer
	}{
		// internal/parallel may use wall-clock time (worker pool).
		{"walltime", "repro/internal/parallel", true, walltimeAnalyzer},
		// cmd/ binaries report wall-clock timing by design.
		{"walltime", "repro/cmd/hivesim", true, walltimeAnalyzer},
		// internal/parallel and internal/stats own the raw concurrency.
		{"rawconc", "repro/internal/stats", true, rawconcAnalyzer},
		{"rawconc", "repro/internal/parallel", true, rawconcAnalyzer},
		// maporder and stablesort only police model packages.
		{"maporder", "repro/cmd/hivebench", true, maporderAnalyzer},
		{"stablesort", "repro/examples/quickstart", true, stablesortAnalyzer},
		// layering only constrains internal packages.
		{"layering", "repro/cmd/hivesim", false, layeringAnalyzer},
		// carefulref exempts the protocol's own implementation.
		{"carefulref", "repro/internal/careful", true, carefulrefAnalyzer},
		// the interprocedural analyzers only police model packages. (The
		// fixtures import the real rpc/sim packages, so they cannot load
		// under those paths; cmd/ stands in for "out of scope".)
		{"rpctaint", "repro/cmd/hivebench", true, rpctaintAnalyzer},
		{"errdrop", "repro/cmd/hivesim", true, errdropAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.fixture+"_as_"+strings.ReplaceAll(tc.as, "/", "_"), func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture, tc.as, tc.typed)
			for _, d := range RunAnalyzers(pkg, DefaultConfig(), []*Analyzer{tc.an}) {
				t.Errorf("allowlisted path %s still diagnosed: %s", tc.as, d)
			}
		})
	}
}

// TestPragmaMechanics exercises the //hive:lint-ignore escape hatch:
// suppression on the same and preceding line, mandatory reasons,
// unknown-analyzer detection, and per-analyzer scoping.
func TestPragmaMechanics(t *testing.T) {
	all := checkFixture(t, "pragma", "repro/internal/pragma", true, walltimeAnalyzer)

	var pragmaDiags []Diagnostic
	for _, d := range all {
		if d.Analyzer == "pragma" {
			pragmaDiags = append(pragmaDiags, d)
		}
	}
	if len(pragmaDiags) != 2 {
		t.Fatalf("want 2 malformed-pragma diagnostics, got %d: %v", len(pragmaDiags), pragmaDiags)
	}
	if !strings.Contains(pragmaDiags[0].Message, "requires a reason") {
		t.Errorf("missing-reason pragma not reported: %s", pragmaDiags[0])
	}
	if !strings.Contains(pragmaDiags[1].Message, "unknown analyzer") {
		t.Errorf("unknown-analyzer pragma not reported: %s", pragmaDiags[1])
	}

	// The two well-formed walltime pragmas (plus the deliberately
	// mis-scoped maporder one) must surface in the pragma inventory.
	pkg := loadFixture(t, "pragma", "repro/internal/pragma", true)
	RunAnalyzers(pkg, DefaultConfig(), []*Analyzer{walltimeAnalyzer})
	var reasons []string
	for _, pr := range pkg.pragmas {
		reasons = append(reasons, pr.analyzer+": "+pr.reason)
	}
	want := []string{
		"walltime: fixture exercising the escape hatch",
		"walltime: same-line pragmas work too",
		"maporder: wrong analyzer on purpose",
	}
	if strings.Join(reasons, "\n") != strings.Join(want, "\n") {
		t.Errorf("pragma inventory mismatch:\ngot  %q\nwant %q", reasons, want)
	}
}

// TestDiagnosticString pins the file:line:col rendering the CLI prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/vm/vm.go", Line: 7, Col: 3, Analyzer: "walltime", Message: "no"}
	if got, want := d.String(), "internal/vm/vm.go:7:3: walltime: no"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLayerTableCoversInventory keeps the rank table honest: every
// internal package in the tree must be ranked (the analyzer reports
// unranked packages, so this is belt-and-braces for the config itself).
func TestLayerTableCoversInventory(t *testing.T) {
	root := moduleRootForTest(t)
	ents, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var missing []string
	for _, e := range ents {
		if e.IsDir() {
			if _, ok := cfg.Layers[e.Name()]; !ok {
				missing = append(missing, e.Name())
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("internal packages missing from the layer table: %v", missing)
	}
}
