package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockcheckAnalyzer enforces the no-blocking-I/O-under-the-membership-
// lock invariant on functions annotated //fuzzyho:nolockio: everything
// that runs while holding the cluster router's memMu (ringRouter.memMu,
// the ring-flip lock both backends share) or inside a paused shard.  The two-phase migration rework exists
// precisely because blocking under that lock stalls every submitter; the
// runtime guard is the -race chaos smoke, which only catches the
// schedules it happens to drive.
//
// The analyzer computes, for every function in the analyzed packages, a
// "reaches blocking I/O" fact — direct network reads/writes and dials,
// fsync, time.Sleep, and channel sends outside a select — and propagates
// it through the static call graph (cross-package via facts, since
// packages are analyzed in dependency order).  A nolockio function that
// performs or reaches any of these gets a diagnostic naming the chain.
//
// Limitations, by design: calls through interfaces other than net.Conn
// and through func values are not resolved (the migration hooks are
// exercised by the chaos tests instead), and sends inside any select are
// considered bounded by the select's alternatives.  The router reaches
// its nodes through the cluster node interface, so each implementation's
// submit/trySubmit/stats carries its own nolockio annotation and is
// audited directly.
var LockcheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "forbid blocking I/O reachable from //fuzzyho:nolockio functions",
	Run:  runLockcheck,
}

// blockingFact records why a function blocks, with the position of the
// offending operation or call chain.
type blockingFact struct {
	reason string
}

// blockingFuncs are operations that block on external progress.
var blockingFuncs = map[string]string{
	"(net.Conn).Read":           "network read",
	"(net.Conn).Write":          "network write",
	"(*net.TCPConn).Read":       "network read",
	"(*net.TCPConn).Write":      "network write",
	"(*net.UnixConn).Read":      "network read",
	"(*net.UnixConn).Write":     "network write",
	"net.Dial":                  "network dial",
	"net.DialTimeout":           "network dial",
	"(*net.Dialer).Dial":        "network dial",
	"(*net.Dialer).DialContext": "network dial",
	"(*os.File).Sync":           "fsync",
	"time.Sleep":                "sleep",
	"(*sync.WaitGroup).Wait":    "waitgroup wait",
}

func runLockcheck(pass *Pass) error {
	pkg := pass.Pkg

	// Build the package-local call graph: per function, the first direct
	// blocking op (if any) and the static callees.
	type edge struct {
		fn  *types.Func
		pos ast.Node
	}
	type node struct {
		decl    *ast.FuncDecl
		obj     *types.Func
		reason  string
		callees []edge
	}
	nodes := make(map[*types.Func]*node)

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			nd := &node{decl: fd, obj: obj}
			selectDepth := 0
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // closures run who-knows-when; out of scope
				case *ast.SelectStmt:
					selectDepth++
					ast.Inspect(n.Body, walk)
					selectDepth--
					return false
				case *ast.SendStmt:
					if selectDepth == 0 && nd.reason == "" {
						nd.reason = fmt.Sprintf("unbounded channel send at %s", pass.Fset.Position(n.Pos()))
					}
				case *ast.CallExpr:
					kind, obj := callee(pkg.Info, n)
					if kind != calleeFunc {
						return true
					}
					fn := obj.(*types.Func)
					if why, ok := blockingFuncs[fn.FullName()]; ok {
						if nd.reason == "" {
							nd.reason = fmt.Sprintf("%s (%s) at %s", why, fn.FullName(), pass.Fset.Position(n.Pos()))
						}
						return true
					}
					nd.callees = append(nd.callees, edge{fn: fn, pos: n})
				}
				return true
			}
			ast.Inspect(fd.Body, walk)
			nodes[obj] = nd
		}
	}

	// Seed from directly blocking functions and imported facts, then
	// propagate to a fixpoint over the package-local call graph.
	reason := make(map[*types.Func]string)
	for obj, nd := range nodes {
		if nd.reason != "" {
			reason[obj] = nd.reason
		}
	}
	lookup := func(fn *types.Func) (string, bool) {
		if r, ok := reason[fn]; ok {
			return r, true
		}
		if f, ok := pass.ImportFact(fn); ok {
			return f.(blockingFact).reason, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for obj, nd := range nodes {
			if _, ok := reason[obj]; ok {
				continue
			}
			for _, e := range nd.callees {
				if r, ok := lookup(e.fn); ok {
					reason[obj] = fmt.Sprintf("calls %s → %s", funcDisplayName(e.fn), r)
					changed = true
					break
				}
			}
		}
	}
	for obj, r := range reason {
		pass.ExportFact(obj, blockingFact{reason: r})
	}

	// Diagnose annotated functions: report each blocking operation or
	// blocking-reaching call at its own position, so //fuzzyho:allow can
	// waive individual lines.
	for decl := range funcDeclsWith(pkg, DirNoLockIO) {
		name := decl.Name.Name
		selectDepth := 0
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				selectDepth++
				ast.Inspect(n.Body, walk)
				selectDepth--
				return false
			case *ast.SendStmt:
				if selectDepth == 0 {
					pass.Reportf(n.Pos(), "unbounded channel send in %s, annotated //fuzzyho:nolockio (runs under ringRouter.memMu, the ring-flip lock): a full channel would stall every submitter and the membership change itself — the failure class the two-phase migration was rebuilt to remove", name)
				}
			case *ast.CallExpr:
				kind, obj := callee(pkg.Info, n)
				if kind != calleeFunc {
					return true
				}
				fn := obj.(*types.Func)
				if why, ok := blockingFuncs[fn.FullName()]; ok {
					pass.Reportf(n.Pos(), "%s (%s) in %s, annotated //fuzzyho:nolockio (runs under ringRouter.memMu, the ring-flip lock): blocking under the membership lock stalls every submitter until the peer answers", why, fn.FullName(), name)
					return true
				}
				if r, ok := lookup(fn); ok {
					pass.Reportf(n.Pos(), "%s, annotated //fuzzyho:nolockio (runs under ringRouter.memMu, the ring-flip lock), reaches blocking I/O: %s → %s", name, funcDisplayName(fn), r)
				}
			}
			return true
		}
		ast.Inspect(decl.Body, walk)
	}
	return nil
}
