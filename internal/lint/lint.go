// Package lint is hivelint: a determinism & layering static-analysis
// suite for this module, built purely on the standard library's
// go/parser, go/ast and go/types (the repo is stdlib-only, so there is
// no golang.org/x/tools dependency).
//
// DESIGN.md §1 claims every experiment is "fully deterministic (seeded
// PRNG, strictly ordered event queue)". That property used to be
// enforced only by convention; hivelint makes it machine-checked. Six
// per-package analyzers police the hazards that break reproducibility or
// erode the layering the design depends on:
//
//	walltime    no wall-clock time in model code (virtual time only)
//	globalrand  no package-level math/rand (engine-seeded *rand.Rand only)
//	maporder    no map iteration whose order can escape into results
//	rawconc     no raw goroutines/channels/sync outside sim & parallel
//	stablesort  no unstable sorts whose tie order is Go-version-dependent
//	layering    the DESIGN.md §2 import DAG, substrates below core
//
// On top of those, an interprocedural layer (a module-wide call graph
// plus a conservative taint engine, see callgraph.go and taint.go)
// machine-checks the fault-containment disciplines the Hive paper states
// in prose:
//
//	carefulref   reads of another cell's arena go through careful.Reader
//	             (the §3.3 careful-reference protocol)
//	rpctaint     data from RPC requests / SIPS payloads is validated
//	             before it mutates kernel state (distrust other cells)
//	errdrop      RPC call errors (ErrTimeout/ErrShutdown) are never
//	             silently discarded — a dropped failure erodes containment
//
// The suite runs three ways: the cmd/hivelint CLI (with -json), the
// `make lint` target, and an in-tree self-test that lints the whole
// module inside `go test ./...` so the tier-1 gate fails on any new
// determinism hazard.
//
// Deliberate exceptions carry a pragma on the offending line (or the
// line above):
//
//	//hive:lint-ignore <analyzer> <reason>
//
// The reason is mandatory, and the self-test caps the module-wide
// pragma budget so exceptions stay rare and documented.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check. Per-package analyzers set Run; the
// interprocedural analyzers set RunModule and see every loaded package at
// once, plus the call graph.
type Analyzer struct {
	Name string
	Doc  string // one-line rule, shown by `hivelint -list` and in docs
	Run  func(*Pass)
	// RunModule, when set, runs once over the whole loaded package set
	// (the module, or a fixture subset in tests) instead of per package.
	RunModule func(*ModulePass)
}

// Analyzers returns the full hivelint suite in a fixed order: the
// per-package syntactic checks first, then the interprocedural layer.
func Analyzers() []*Analyzer {
	return []*Analyzer{walltimeAnalyzer, globalrandAnalyzer, maporderAnalyzer,
		rawconcAnalyzer, stablesortAnalyzer, layeringAnalyzer,
		carefulrefAnalyzer, rpctaintAnalyzer, errdropAnalyzer}
}

// AnalyzerNames returns the suite's analyzer names sorted alphabetically
// (the order -list and -json present them in).
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Config carries the module-wide policy the analyzers enforce.
type Config struct {
	// ModulePath is the module's import path ("repro").
	ModulePath string
	// WalltimeAllow lists import paths exempt from the walltime check
	// (the parallel runner measures real elapsed time by design).
	WalltimeAllow map[string]bool
	// RawconcAllow lists import paths allowed to use goroutines,
	// channels and sync primitives directly.
	RawconcAllow map[string]bool
	// CarefulAllow lists import paths allowed to read kmem arenas raw:
	// the careful package (it implements the protocol) and kmem itself.
	CarefulAllow map[string]bool
	// Layers ranks every internal package; imports must flow strictly
	// downward (see layering.go). Substrates are ranks 0-3, core 4+.
	Layers map[string]int
}

// DefaultConfig returns the policy for this module, mirroring the
// DESIGN.md §2 inventory.
func DefaultConfig() *Config {
	return &Config{
		ModulePath: "repro",
		WalltimeAllow: map[string]bool{
			"repro/internal/parallel": true, // wall-clock worker pool by design
		},
		RawconcAllow: map[string]bool{
			"repro/internal/parallel": true, // the OS-level worker pool
			"repro/internal/stats":    true, // lock-free atomic counters
		},
		CarefulAllow: map[string]bool{
			"repro/internal/careful": true, // implements the protocol
			"repro/internal/kmem":    true, // the arena itself
		},
		Layers: map[string]int{
			// Substrates (DESIGN.md §2 "built from scratch").
			"sim":      0,
			"kmem":     0,
			"lint":     0, // tooling; imports nothing from the model
			"benchcmp": 0, // tooling; stdlib-only report comparison
			"stats":    1,
			"trace":    1,
			"disk":     1,
			"forensic": 2, // pure consumer of the trace substrate
			"machine":  2,
			"rpc":      3,
			"careful":  3,
			"sched":    3,
			"parallel": 3,
			// Core (the paper's contribution) sits strictly above.
			"vm":          4,
			"membership":  4,
			"fs":          5,
			"cow":         5,
			"proc":        6,
			"core":        7,
			"smpos":       8,
			"wax":         8,
			"workload":    8,
			"faultinject": 9,
			"harness":     10,
		},
	}
}

// ModelPackage reports whether path is simulation-model code: the root
// package plus everything under internal/. cmd/ and examples/ are
// front-ends (wall-clock reporting is fine there) and are exempt from
// the model-only analyzers.
func (c *Config) ModelPackage(path string) bool {
	return path == c.ModulePath || strings.HasPrefix(path, c.ModulePath+"/internal/")
}

// internalName returns the bare package name under internal/ ("vm" for
// "repro/internal/vm") and whether path is an internal package.
func (c *Config) internalName(path string) (string, bool) {
	prefix := c.ModulePath + "/internal/"
	if !strings.HasPrefix(path, prefix) {
		return "", false
	}
	return strings.TrimPrefix(path, prefix), true
}

// Package is one parsed (and usually type-checked) package.
type Package struct {
	Path  string // import path; fixtures may load under a fake path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Info is the type-check result; nil when the package was loaded
	// syntax-only (the layering fixtures, which never need types).
	Info *types.Info

	pragmas []*pragma
}

// pragma is one //hive:lint-ignore comment.
type pragma struct {
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

var pragmaRE = regexp.MustCompile(`^//hive:lint-ignore\s+([A-Za-z0-9_-]*)\s*(.*)$`)

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg   *Package
	Cfg   *Config
	an    *Analyzer
	diags *[]Diagnostic
}

// Reportf records a diagnostic unless an ignore pragma covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	for _, pr := range p.Pkg.pragmas {
		if pr.analyzer == p.an.Name && pr.file == position.Filename &&
			(pr.line == position.Line || pr.line == position.Line-1) {
			pr.used = true
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.an.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when unknown (syntax-only
// loads, or expressions go/types could not resolve).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// importedPackage resolves the package an identifier refers to, e.g. the
// "time" in time.Now. It prefers type information and falls back to the
// file's import table, so it works on syntax-only loads too.
func (p *Pass) importedPackage(file *ast.File, id *ast.Ident) (string, bool) {
	if p.Pkg.Info != nil {
		if obj, ok := p.Pkg.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path(), true
			}
			return "", false // a variable/field shadowing a package name
		}
	}
	for _, imp := range file.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(ipath)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return ipath, true
		}
	}
	return "", false
}

// isCallTo reports whether call is pkgPath.fn, e.g. ("time", "Now").
func (p *Pass) isCallTo(file *ast.File, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	got, ok := p.importedPackage(file, id)
	return ok && got == pkgPath
}

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

// moduleImporter type-checks module-internal packages from source and
// delegates the standard library to the stdlib source importer. Both
// share one FileSet so positions stay coherent. The cache persists for
// the life of the Module, so stdlib packages type-check once.
type moduleImporter struct {
	root   string // module root directory
	module string // module import path
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*types.Package
	built  map[string]*Package // module packages, with their Info
}

func newModuleImporter(root, module string, fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*types.Package{},
		built:  map[string]*Package{},
	}
}

func (m *moduleImporter) Import(ipath string) (*types.Package, error) {
	if ipath == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.cache[ipath]; ok {
		return p, nil
	}
	var p *types.Package
	var err error
	if ipath == m.module || strings.HasPrefix(ipath, m.module+"/") {
		dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(ipath, m.module)))
		_, p, err = m.buildModule(ipath, dir)
	} else {
		p, err = m.std.Import(ipath)
		if err == nil {
			m.cache[ipath] = p
		}
	}
	return p, err
}

// buildModule parses and type-checks one module directory as import
// path ipath, keeping the syntax and type info for the analyzers.
func (m *moduleImporter) buildModule(ipath, dir string) (*Package, *types.Package, error) {
	files, err := parseDir(m.fset, dir)
	if err != nil {
		return nil, nil, err
	}
	conf := types.Config{Importer: m}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tpkg, err := conf.Check(ipath, m.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", ipath, err)
	}
	pkg := &Package{Path: ipath, Dir: dir, Fset: m.fset, Files: files, Info: info}
	m.cache[ipath] = tpkg
	m.built[ipath] = pkg
	return pkg, tpkg, nil
}

// parseDir parses every non-test .go file in dir (with comments).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	return files, nil
}

// collectPragmas scans the files' comments for //hive:lint-ignore.
// Malformed pragmas (missing analyzer or reason, unknown analyzer) are
// reported as diagnostics of the "pragma" pseudo-analyzer: an exception
// without a written reason is itself a violation.
func collectPragmas(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []*pragma {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []*pragma
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				mm := pragmaRE.FindStringSubmatch(c.Text)
				if mm == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				name, reason := mm[1], strings.TrimSpace(mm[2])
				switch {
				case name == "" || !known[name]:
					*diags = append(*diags, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "pragma", Message: fmt.Sprintf("hive:lint-ignore names unknown analyzer %q", name)})
				case reason == "":
					*diags = append(*diags, Diagnostic{File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "pragma", Message: "hive:lint-ignore requires a reason after the analyzer name"})
				default:
					out = append(out, &pragma{file: pos.Filename, line: pos.Line, analyzer: name, reason: reason})
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Module-level driver
// ---------------------------------------------------------------------

// Module is a loaded source tree ready to lint.
type Module struct {
	Root string
	Cfg  *Config
	Fset *token.FileSet

	imp *moduleImporter
}

// LoadModule opens the module rooted at dir (which must hold go.mod).
func LoadModule(root string, cfg *Config) (*Module, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not a module root: %w", root, err)
	}
	fset := token.NewFileSet()
	return &Module{Root: root, Cfg: cfg, Fset: fset, imp: newModuleImporter(root, cfg.ModulePath, fset)}, nil
}

// PackageDirs walks the tree and returns every directory containing
// non-test Go source, skipping testdata and hidden directories. The
// result is sorted, so everything downstream is deterministic.
func (m *Module) PackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps a directory under the module root to its import path.
func (m *Module) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return m.Cfg.ModulePath, nil
	}
	return m.Cfg.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadPackage parses and type-checks the package in dir under its real
// import path, reusing work done while resolving earlier imports.
func (m *Module) LoadPackage(dir string) (*Package, error) {
	ipath, err := m.importPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := m.imp.built[ipath]; ok {
		return pkg, nil
	}
	pkg, _, err := m.imp.buildModule(ipath, dir)
	return pkg, err
}

// Result is a whole-module lint run.
type Result struct {
	Diagnostics []Diagnostic
	// Pragmas is every well-formed ignore pragma found, whether or not
	// it fired; the self-test budgets these.
	Pragmas []PragmaUse
}

// PragmaUse describes one //hive:lint-ignore exception.
type PragmaUse struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// Pragmas lists the package's well-formed ignore pragmas. It is only
// populated after RunAnalyzers (which scans the comments).
func (p *Package) Pragmas() []PragmaUse {
	var out []PragmaUse
	for _, pr := range p.pragmas {
		out = append(out, PragmaUse{File: pr.file, Line: pr.line, Analyzer: pr.analyzer, Reason: pr.reason})
	}
	return out
}

// Lint runs the given analyzers (nil = the full suite) over every
// package in the module: the per-package analyzers package by package,
// then the interprocedural analyzers once over the whole loaded set.
// When the full suite ran, every //hive:lint-ignore pragma that
// suppressed nothing is reported as an "unused-pragma" diagnostic — a
// stale exception is itself a violation. Diagnostics come back sorted by
// position.
func (m *Module) Lint(analyzers []*Analyzer) (*Result, error) {
	fullSuite := analyzers == nil
	if fullSuite {
		analyzers = Analyzers()
	}
	dirs, err := m.PackageDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := m.LoadPackage(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	res := &Result{}
	res.Diagnostics = LintPackages(pkgs, m.Cfg, analyzers, fullSuite)
	for _, pkg := range pkgs {
		res.Pragmas = append(res.Pragmas, pkg.Pragmas()...)
	}
	sortPragmas(res.Pragmas)
	return res, nil
}

// LintPackages runs the per-package and module-level analyzers over an
// explicit package set. With reportUnused set, pragmas that suppressed
// nothing are reported (only meaningful when the analyzer set is the
// full suite — a pragma for an analyzer that never ran is not stale).
func LintPackages(pkgs []*Package, cfg *Config, analyzers []*Analyzer, reportUnused bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkg.pragmas = collectPragmas(pkg.Fset, pkg.Files, &diags)
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Pkg: pkg, Cfg: cfg, an: a, diags: &diags})
			}
		}
	}
	mp := newModulePass(pkgs, cfg, &diags)
	for _, a := range analyzers {
		if a.RunModule != nil {
			mp.an = a
			a.RunModule(mp)
		}
	}
	if reportUnused {
		for _, pkg := range pkgs {
			for _, pr := range pkg.pragmas {
				if !pr.used {
					diags = append(diags, Diagnostic{
						File: pr.file, Line: pr.line, Col: 1,
						Analyzer: "unused-pragma",
						Message:  fmt.Sprintf("//hive:lint-ignore %s suppresses nothing; delete the stale pragma", pr.analyzer),
					})
				}
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// RunAnalyzers applies analyzers to one loaded package and returns the
// diagnostics, including malformed-pragma reports. Module-level
// analyzers see just this package.
func RunAnalyzers(pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	return LintPackages([]*Package{pkg}, cfg, analyzers, false)
}

// ModulePass is an interprocedural analyzer's view of the whole loaded
// package set: every package, the call graph over them, and shared
// access to diagnostics with pragma suppression.
type ModulePass struct {
	Pkgs []*Package
	Cfg  *Config

	an        *Analyzer
	diags     *[]Diagnostic
	pkgByFile map[string]*Package
	graph     *CallGraph
}

func newModulePass(pkgs []*Package, cfg *Config, diags *[]Diagnostic) *ModulePass {
	mp := &ModulePass{Pkgs: pkgs, Cfg: cfg, diags: diags, pkgByFile: map[string]*Package{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			mp.pkgByFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	return mp
}

// Graph returns the call graph over the pass's packages, built on first
// use and shared by all module analyzers.
func (mp *ModulePass) Graph() *CallGraph {
	if mp.graph == nil {
		mp.graph = BuildCallGraph(mp.Pkgs)
	}
	return mp.graph
}

// Fset returns the shared FileSet (every package in a pass shares one).
func (mp *ModulePass) Fset() *token.FileSet {
	if len(mp.Pkgs) > 0 {
		return mp.Pkgs[0].Fset
	}
	return nil
}

// Reportf records a diagnostic at pos unless an ignore pragma in the
// owning package covers the line.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := mp.Fset().Position(pos)
	if pkg := mp.pkgByFile[position.Filename]; pkg != nil {
		for _, pr := range pkg.pragmas {
			if pr.analyzer == mp.an.Name && pr.file == position.Filename &&
				(pr.line == position.Line || pr.line == position.Line-1) {
				pr.used = true
				return
			}
		}
	}
	*mp.diags = append(*mp.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: mp.an.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// sortPragmas orders pragma uses by file, line, analyzer so the CLI and
// self-test see them deterministically regardless of load order.
func sortPragmas(ps []PragmaUse) {
	sort.SliceStable(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// SortDiagnostics orders by file, line, column, analyzer, message.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// FindModuleRoot walks up from dir looking for this module's go.mod.
// It returns "" when the source tree is not available (for example when
// tests run against an installed copy of the package).
func FindModuleRoot(dir string) string {
	for {
		gm := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			if strings.Contains(string(data), "module repro") {
				return dir
			}
			return ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
