// Package determinism flags constructs that make simulation results
// depend on anything but their inputs. The paper's headline numbers
// (relative throughput, zero thermal emergencies) are closed-loop
// trajectories; if two runs of the same configuration can diverge, no
// reported figure is trustworthy and the batched-vs-sequential
// bit-equality guarantees of PR 3 become unfalsifiable. Packages opt
// in with a //mtlint:deterministic marker next to their package
// clause.
//
// Flagged constructs:
//
//   - time.Now / time.Since / time.Until: wall-clock reads feeding
//     simulation logic. Simulated time must come from tick counters.
//   - package-level math/rand (and math/rand/v2) functions: globally
//     seeded generators give run-order-dependent streams. Use an
//     explicitly seeded *rand.Rand.
//   - range over a map: iteration order is randomized per run; any
//     value, ordering, or floating-point summation derived from it is
//     nondeterministic. Loops whose bodies are genuinely
//     order-insensitive can be suppressed with //mtlint:allow maprange
//     and a reason.
//   - append to a captured variable inside a goroutine: result
//     collection must use index-addressed writes (results[i] = ...) so
//     completion order cannot reorder — or race on — the output.
//   - math.Exp: its bits depend on the host, not only on the input.
//     On amd64 it runs one instruction sequence on CPUs with FMA and
//     another without, and on arm64 it runs its own assembly. Use
//     linalg.Exp, which is built from math.FMA and is the same on
//     every host; suppress with //mtlint:allow mathexp and a reason.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"multitherm/internal/analysis/driver"
)

// Analyzer is the determinism check.
var Analyzer = &driver.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global rand, map iteration, unordered goroutine result collection, and host-dependent math.Exp in //mtlint:deterministic packages",
	Run:  run,
}

// Marker is the package-level opt-in directive.
const Marker = "deterministic"

// seededConstructors are math/rand functions that build explicitly
// seeded generators rather than reading the global stream.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *driver.Pass) error {
	pkg := pass.Pkg
	if !driver.PackageMarked(pkg, Marker) {
		return nil
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, info, n)
			case *ast.RangeStmt:
				checkRange(pass, info, n)
			case *ast.GoStmt:
				checkGoStmt(pass, info, n)
			}
			return true
		})
	}
	return nil
}

// pkgFunc resolves sel to (package path, function name) when it is a
// direct reference to a package-level function of another package.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	// Only count qualified references (pkg.Fn), not method values.
	if _, isIdent := sel.X.(*ast.Ident); !isIdent {
		return "", "", false
	}
	if _, isPkg := info.Uses[sel.X.(*ast.Ident)].(*types.PkgName); !isPkg {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

func checkSelector(pass *driver.Pass, info *types.Info, sel *ast.SelectorExpr) {
	path, name, ok := pkgFunc(info, sel)
	if !ok {
		return
	}
	switch path {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			if !driver.Allowed(pass.Pkg, sel.Pos(), "time") {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; derive time from tick counters", name)
			}
		}
	case "math":
		if name == "Exp" && !driver.Allowed(pass.Pkg, sel.Pos(), "mathexp") {
			pass.Reportf(sel.Pos(), "math.Exp returns host-dependent bits (FMA and non-FMA paths on amd64, assembly on arm64); use linalg.Exp")
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[name] {
			if !driver.Allowed(pass.Pkg, sel.Pos(), "rand") {
				pass.Reportf(sel.Pos(), "%s.%s uses the globally seeded generator; use an explicitly seeded *rand.Rand", path, name)
			}
		}
	}
}

func checkRange(pass *driver.Pass, info *types.Info, rng *ast.RangeStmt) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if driver.Allowed(pass.Pkg, rng.Pos(), "maprange") {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is randomized; sort the keys or annotate //mtlint:allow maprange with why the body is order-insensitive")
}

// checkGoStmt flags `x = append(x, ...)` on variables captured from an
// enclosing scope inside a goroutine body: goroutine completion order
// then determines element order (and the append itself races).
func checkGoStmt(pass *driver.Pass, info *types.Info, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "append" {
				continue
			}
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			target, ok := call.Args[0].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[target]
			if obj == nil || obj.Pos() == token.NoPos {
				continue
			}
			// Captured iff declared before the literal begins (the
			// literal's own declarations sit inside its body span).
			if obj.Pos() < lit.Pos() && !driver.Allowed(pass.Pkg, as.Pos(), "goappend") {
				pass.Reportf(as.Pos(), "append to captured %q inside goroutine makes element order depend on scheduling; write results[i] by index instead", target.Name)
			}
		}
		return true
	})
}
