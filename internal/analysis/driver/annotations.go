package driver

import (
	"go/ast"
	"go/token"
	"strings"
)

// mtlint annotation grammar. Annotations are directive-style comments
// (no space after the slashes), so gofmt leaves them alone:
//
//	//mtlint:deterministic
//	    Package marker, placed with the package clause (any file).
//	    Opts the package into the determinism analyzer.
//
//	//mtlint:zeroalloc
//	    Function marker, placed in a function's doc comment. The
//	    zeroalloc analyzer fails the build if escape analysis reports
//	    any heap allocation inside the function body.
//
//	//mtlint:generic <name> tested-by <TestOrFuzzName>
//	    Function marker on a body-less assembly prototype naming its
//	    pure-Go twin and the differential test or fuzz target that
//	    exercises both.
//
//	//mtlint:nogeneric <reason>
//	    Function marker exempting an assembly prototype that is not a
//	    compute kernel (e.g. CPUID feature probes) from kernel parity.
//
//	//mtlint:units
//	    Package marker, placed with the package clause (any file).
//	    Opts the package into the unitsafety analyzer: exported
//	    signatures and struct fields must carry internal/units types
//	    for unit-bearing quantities, cross-dimension conversions are
//	    flagged, and .Raw() escapes must be audited.
//
//	//mtlint:unitboundary <reason>
//	    Function marker, placed in a function's doc comment. Declares
//	    the function a sanctioned unit-erasing boundary, permitting
//	    .Raw() calls inside its body (//mtlint:zeroalloc implies the
//	    same permission — the zero-alloc kernels are the boundary).
//
//	//mtlint:guardedby <lockField> [writes]
//	    Struct-field marker, in the field's doc or trailing comment.
//	    Every access to the field must happen with the named sibling
//	    lock held on the same base expression (g.pending needs g.mu),
//	    proven by the lockcheck analyzer's must-hold dataflow; writes
//	    additionally need the lock exclusively (Lock, not RLock). The
//	    `writes` variant guards writes only — the copy-on-write shape
//	    where lock-free readers Load an immutable snapshot and only
//	    publication takes the writer lock.
//
//	//mtlint:locked <lockField>
//	    Method marker, placed in the method's doc comment. Declares
//	    the contract "callers hold recv.<lockField>": the body is
//	    checked with the lock pre-held, and every call site must
//	    prove it holds the receiver's lock.
//
//	//mtlint:lifecycle
//	    Package marker, placed with the package clause (any file).
//	    Opts the package into the lifecycle analyzer: every goroutine
//	    needs a join path (WaitGroup Done/Wait, observed channel
//	    send) and every timer/ticker a reachable Stop.
//	    //mtlint:deterministic packages are covered implicitly.
//
//	//mtlint:sanitizer
//	    Function marker, placed in the function's doc comment.
//	    Declares the function a trust boundary for the taint analysis:
//	    its results are clean regardless of argument taint, and its
//	    arguments count as validated afterwards. Reserve it for strict
//	    whitelist lookups (MixByName, PolicyByName) and decodes of
//	    trusted local toolchain output — a sanitizer that forwards its
//	    input unexamined silences real findings downstream.
//
//	//mtlint:allow <check> [reason]
//	    Line-level suppression, on the flagged line or the line
//	    directly above it. Checks: floatcmp, maprange, time, rand,
//	    goappend, mathexp, unit, lockheld, lockorder, guardedby,
//	    cowcheck, atomicmix, lifecycle, taint.
const directivePrefix = "//mtlint:"

// directive splits an "//mtlint:name args..." comment into its name
// and argument string; ok is false for other comments.
func directive(c *ast.Comment) (name, args string, ok bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(args), true
}

// PackageMarked reports whether any file of the package carries the
// given //mtlint:<name> directive at package level (in or above the
// package clause's comments, before the first declaration).
func PackageMarked(pkg *Package, name string) bool {
	for _, f := range pkg.Files {
		limit := f.End()
		if len(f.Decls) > 0 {
			limit = f.Decls[0].Pos()
		}
		for _, cg := range f.Comments {
			if cg.Pos() >= limit {
				break
			}
			for _, c := range cg.List {
				if n, _, ok := directive(c); ok && n == name {
					return true
				}
			}
		}
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if n, _, ok := directive(c); ok && n == name {
					return true
				}
			}
		}
	}
	return false
}

// FuncDirective returns the argument string of the //mtlint:<name>
// directive in fn's doc comment, and whether it is present.
func FuncDirective(fn *ast.FuncDecl, name string) (args string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if n, a, isDir := directive(c); isDir && n == name {
			return a, true
		}
	}
	return "", false
}

// FuncMarked reports whether fn's doc comment carries //mtlint:<name>.
func FuncMarked(fn *ast.FuncDecl, name string) bool {
	_, ok := FuncDirective(fn, name)
	return ok
}

// Allowed reports whether a "//mtlint:allow <check>" suppression
// covers pos: the directive may sit on the same line (trailing
// comment) or on the line immediately above.
func Allowed(pkg *Package, pos token.Pos, check string) bool {
	position := pkg.Fset.Position(pos)
	file := fileFor(pkg, pos)
	if file == nil {
		return false
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			n, args, ok := directive(c)
			if !ok || n != "allow" {
				continue
			}
			fields := strings.Fields(args)
			if len(fields) == 0 || fields[0] != check {
				continue
			}
			cl := pkg.Fset.Position(c.Pos()).Line
			if cl == position.Line || cl == position.Line-1 {
				return true
			}
		}
	}
	return false
}

// fileFor returns the parsed file containing pos (test files included,
// so suppressions work uniformly).
func fileFor(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	for _, f := range pkg.TestFiles {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
