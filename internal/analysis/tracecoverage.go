package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// traceCoverage verifies that the simulation's trace-visible enums stay
// observable in the flight recorder. Two rules per enum:
//
//  1. The enum must have a trace emission site: some non-test code must
//     pass `<enum>.String()` into a Record call (the "exit:<reason>" and
//     "ev:<kind>" record kinds). Without one, the whole enum is invisible
//     to `trace` output and to analysis built on it.
//  2. Every exported constant of the enum must be used by non-test code
//     outside the enum's own String method. A constant nobody produces or
//     matches can never appear in a trace — it is a dead record kind that
//     readers of DESIGN.md will wait for forever.
//
// The enums covered are the VM-exit reasons (vmx.ExitReason) and the
// resource-event kinds of the node's bus (pisces.EventKind). A listed
// package that exists but no longer declares its enum is itself a
// finding: the enum moved or was renamed, and the check would otherwise
// go silent.
var traceCoverage = &Analyzer{
	Name:      checkTrace,
	Doc:       "every exit-reason / event-kind constant must reach a trace emission site",
	RunModule: runTraceCoverage,
}

// traceEnums lists the trace-visible enum types by declaring package
// suffix. Enums whose package is absent from a module (fixture trees) are
// skipped.
var traceEnums = []struct {
	pkg string // module-relative package suffix
	typ string // named enum type
}{
	{"internal/vmx", "ExitReason"},
	{"internal/pisces", "EventKind"},
}

func runTraceCoverage(m *Module) []Finding {
	var out []Finding
	for _, enum := range traceEnums {
		out = append(out, checkTraceEnum(m, enum.pkg, enum.typ)...)
	}
	return out
}

// checkTraceEnum runs both rules for one enum type.
func checkTraceEnum(m *Module, pkgSuffix, typName string) []Finding {
	type constDecl struct {
		name ast.Node
		used bool
	}
	consts := make(map[string]*constDecl)
	var order []string
	var typeDecl ast.Node
	var pkgClause ast.Node // the declaring package's first non-test file

	// Locate the enum's declaration and its exported constants in the
	// declaring package's non-test files.
	for _, u := range m.Units {
		if !unitIs(u, pkgSuffix) {
			continue
		}
		for _, f := range u.Files {
			if isTestFile(m, f) {
				continue
			}
			if pkgClause == nil {
				pkgClause = f.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.TypeSpec:
					if d.Name.Name == typName {
						typeDecl = d.Name
					}
				case *ast.ValueSpec:
					for _, name := range d.Names {
						if !name.IsExported() {
							continue
						}
						obj, ok := u.Info.Defs[name].(*types.Const)
						if !ok || !namedIs(obj.Type(), pkgSuffix, typName) {
							continue
						}
						if consts[name.Name] == nil {
							consts[name.Name] = &constDecl{name: name}
							order = append(order, name.Name)
						}
					}
				}
				return true
			})
		}
	}
	if pkgClause == nil {
		return nil // module has no such package (e.g. an unrelated fixture)
	}
	if typeDecl == nil {
		return []Finding{{
			Check: checkTrace,
			Pos:   m.Fset.Position(pkgClause.Pos()),
			Msg: pkgSuffix + " declares no " + typName + ": the traced enum moved or was " +
				"renamed, so trace-coverage would check nothing; update traceEnums",
		}}
	}

	// Scan all non-test code for constant uses (outside the enum's own
	// String method) and for Record calls fed by <enum>.String().
	emitted := false
	for _, u := range m.Units {
		for _, f := range u.Files {
			if isTestFile(m, f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				inString := ok && isEnumString(u, fd, pkgSuffix, typName)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch e := n.(type) {
					case *ast.Ident:
						if inString {
							return true
						}
						obj, ok := u.Info.Uses[e].(*types.Const)
						if !ok || !namedIs(obj.Type(), pkgSuffix, typName) {
							return true
						}
						if cd := consts[obj.Name()]; cd != nil {
							cd.used = true
						}
					case *ast.CallExpr:
						if !emitted && isRecordCall(e) && callFeedsString(u, e, pkgSuffix, typName) {
							emitted = true
						}
					}
					return true
				})
			}
		}
	}

	var out []Finding
	if !emitted {
		out = append(out, Finding{
			Check: checkTrace,
			Pos:   m.Fset.Position(typeDecl.Pos()),
			Msg: typName + " has no trace emission site: no non-test Record call " +
				"is fed by " + typName + ".String(), so the enum never reaches the flight recorder",
		})
	}
	for _, name := range order {
		cd := consts[name]
		if !cd.used {
			out = append(out, Finding{
				Check: checkTrace,
				Pos:   m.Fset.Position(cd.name.Pos()),
				Msg: name + " is never used by non-test code outside " + typName +
					".String; the record kind it names can never appear in a trace",
			})
		}
	}
	return out
}

// unitIs reports whether the unit is the base package at the given
// module-relative suffix (external test units excluded).
func unitIs(u *Pkg, pkgSuffix string) bool {
	return !strings.HasSuffix(u.Path, ".test") && strings.HasSuffix(u.Path, pkgSuffix)
}

// isEnumString reports whether fd is the String method of the enum type.
func isEnumString(u *Pkg, fd *ast.FuncDecl, pkgSuffix, typName string) bool {
	if fd.Name.Name != "String" || fd.Recv == nil {
		return false
	}
	fn, ok := u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	return recv != nil && namedIs(recv.Type(), pkgSuffix, typName)
}

// isRecordCall reports whether e is a method call named Record (the trace
// flight-recorder entry point; matched by name so fixtures with their own
// trace package are covered too).
func isRecordCall(e *ast.CallExpr) bool {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Record"
}

// callFeedsString reports whether any argument subtree of the call
// contains <expr>.String() where expr has the enum type.
func callFeedsString(u *Pkg, call *ast.CallExpr, pkgSuffix, typName string) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "String" {
				return true
			}
			if tv, ok := u.Info.Types[sel.X]; ok && namedIs(tv.Type, pkgSuffix, typName) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// namedIs reports whether t is the named type typName declared in a
// package whose import path ends with pkgSuffix (pointers unwrapped).
func namedIs(t types.Type, pkgSuffix, typName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == typName && strings.HasSuffix(named.Obj().Pkg().Path(), pkgSuffix)
}
