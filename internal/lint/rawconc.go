package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// rawconc: model concurrency must be expressed as sim.Task virtual-time
// tasks, never as raw goroutines, channels or sync primitives. A stray
// `go` statement in model code races real scheduling against virtual
// time and destroys run-to-run reproducibility in a way no seed can
// fix. Only internal/parallel (the OS-level trial pool) and internal/stats
// (lock-free atomic counters) may touch the raw machinery; they are
// allowlisted in Config.RawconcAllow. internal/sim is not: its tasks are
// iter.Pull coroutines, which hand control over without a go statement,
// channel or sync primitive.
var rawconcAnalyzer = &Analyzer{
	Name: "rawconc",
	Doc:  "no go statements, channels, select, or sync outside internal/parallel and internal/stats",
	Run:  runRawconc,
}

func runRawconc(p *Pass) {
	if p.Cfg.RawconcAllow[p.Pkg.Path] {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, imp := range file.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath == "sync" || ipath == "sync/atomic" {
				p.Reportf(imp.Pos(), "import of %q: model code must use sim virtual-time sync (sim.Mutex, sim.Semaphore, Task blocking)", ipath)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "go statement: model concurrency must be a sim.Task, not a raw goroutine")
			case *ast.SelectStmt:
				p.Reportf(n.Pos(), "select statement: channel scheduling is nondeterministic; use sim events")
			case *ast.SendStmt:
				p.Reportf(n.Pos(), "channel send: model code must not use channels; use sim events and virtual-time sync")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.Reportf(n.Pos(), "channel receive: model code must not use channels; use sim events and virtual-time sync")
				}
			case *ast.ChanType:
				p.Reportf(n.Pos(), "chan type: model code must not use channels; use sim events and virtual-time sync")
			}
			return true
		})
	}
}
