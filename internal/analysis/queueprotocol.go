package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// queueProtocol keeps cmdqueue.go the single owner of the
// controller↔hypervisor command queue, and holds the owner itself to the
// completion discipline epoch waiters depend on:
//
//  1. within the covirt package, the unexported fields of cmdQueue
//     (mu, recs, applied, wait) may only be touched from cmdqueue.go —
//     other files must go through its methods;
//  2. inside cmdqueue.go, every store to the applied-epoch word
//     (applied.Store) must sit under a monotonic (>) guard — an unguarded
//     publish could move the word backwards on a stale marker and release
//     epoch waiters before their invalidations ran.
var queueProtocol = &Analyzer{
	Name: checkQueue,
	Doc:  "the command queue is accessed only through cmdqueue.go, and its applied epoch only rises",
	Run:  runQueueProtocol,
}

// queueOwnerFile is the sole file allowed to touch the queue's fields.
const queueOwnerFile = "cmdqueue.go"

func runQueueProtocol(p *Pass) []Finding {
	var out []Finding
	for _, file := range p.Unit.Files {
		if fileBase(p.Mod, file) == queueOwnerFile {
			queueEpochGuards(p, file, &out)
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			// Rule 1: field access on a cmdQueue value.
			if sel, ok := n.(*ast.SelectorExpr); ok && cmdQueueField(p, sel) != "" {
				p.report(&out, checkQueue, sel,
					"direct access to cmdQueue.%s outside %s; the queue protocol is owned by %s",
					sel.Sel.Name, queueOwnerFile, queueOwnerFile)
			}
			return true
		})
	}
	return out
}

// queueEpochGuards enforces rule 2 on the owner file: an applied.Store
// call must lie in the body of an if whose condition carries a strict >
// comparison.
func queueEpochGuards(p *Pass, file *ast.File, out *[]Finding) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		var guards []*ast.IfStmt // if statements whose condition compares with >
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if ifs, isIf := n.(*ast.IfStmt); isIf && condHasGreater(ifs.Cond) {
				guards = append(guards, ifs)
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !isSel || sel.Sel.Name != "Store" {
				return true
			}
			field, isField := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !isField || cmdQueueField(p, field) != "applied" {
				return true
			}
			for _, g := range guards {
				if g.Body.Pos() <= call.Pos() && call.End() <= g.Body.End() {
					return true
				}
			}
			p.report(out, checkQueue, call,
				"applied-epoch store (%s) outside a monotonic guard; publish only under an `if epoch > applied` check",
				types.ExprString(call))
			return true
		})
	}
}

// cmdQueueField returns the field name when sel selects a field of the
// covirt cmdQueue type, or "".
func cmdQueueField(p *Pass, sel *ast.SelectorExpr) string {
	s := p.Unit.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || !recvIsCmdQueue(s.Recv()) {
		return ""
	}
	return sel.Sel.Name
}

// condHasGreater reports whether a strict > comparison appears anywhere in
// the condition expression.
func condHasGreater(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.GTR {
			found = true
		}
		return !found
	})
	return found
}

// recvIsCmdQueue reports whether t is the covirt cmdQueue type (possibly
// behind a pointer).
func recvIsCmdQueue(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "cmdQueue" && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/covirt")
}
