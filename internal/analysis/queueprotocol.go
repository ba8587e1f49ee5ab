package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// queueProtocol keeps cmdqueue.go the single owner of the
// controller↔hypervisor command-queue shared-memory layout, and holds the
// owner itself to the publish discipline the batched protocol depends on:
//
//  1. within the covirt package, the unexported fields of cmdQueue
//     (mem, base, mu, cond, scratch) may only be touched from
//     cmdqueue.go — other files must go through its methods;
//  2. no code outside cmdqueue.go may issue raw physical-memory accesses
//     whose address expression is derived from the queue-area layout
//     constants (OffCovirtCmdQ, CmdQueueStride, the cmdq* sizes and
//     header offsets);
//  3. inside cmdqueue.go, no function may write a slot record after
//     publishing the head: the head store is the release that makes a
//     chunk visible to the drainer, so it must be the final write of the
//     chunk (head-publish-after-slot-write ordering);
//  4. inside cmdqueue.go, every store to the applied-epoch header word
//     must sit under a monotonic (>) guard — an unguarded publish could
//     move the counter backwards on a stale marker and release epoch
//     waiters before their invalidations ran.
var queueProtocol = &Analyzer{
	Name: checkQueue,
	Doc:  "command-queue shared memory is accessed only through cmdqueue.go",
	Run:  runQueueProtocol,
}

// queueOwnerFile is the sole file allowed to touch the queue layout.
const queueOwnerFile = "cmdqueue.go"

// queueLayoutIdents are identifiers that mark an address expression as
// queue-layout arithmetic.
var queueLayoutIdents = []string{
	"OffCovirtCmdQ", "CmdQueueStride", "cmdqHdrSize",
	"cmdqSlots", "cmdqSlotSize",
	"cmdqOffHead", "cmdqOffTail", "cmdqOffEpoch",
}

// memAccessors are the raw physical-memory accessor method names.
var memAccessors = map[string]bool{
	"Read": true, "Write": true,
	"Read64": true, "Write64": true,
}

func runQueueProtocol(p *Pass) []Finding {
	var out []Finding
	for _, file := range p.Unit.Files {
		if fileBase(p.Mod, file) == queueOwnerFile {
			queueOwnerChecks(p, file, &out)
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// Rule 1: field access on a cmdQueue value.
				s := p.Unit.Info.Selections[n]
				if s != nil && s.Kind() == types.FieldVal && recvIsCmdQueue(s.Recv()) {
					p.report(&out, checkQueue, n,
						"direct access to cmdQueue.%s outside %s; the queue protocol is owned by %s",
						n.Sel.Name, queueOwnerFile, queueOwnerFile)
				}
			case *ast.CallExpr:
				// Rule 2: raw memory access at a queue-layout address.
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || !memAccessors[sel.Sel.Name] || len(n.Args) == 0 {
					return true
				}
				fn, ok := p.Unit.Info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				if !memAccessorOnPhysMem(fn) {
					return true
				}
				addr := types.ExprString(n.Args[0])
				for _, id := range queueLayoutIdents {
					if strings.Contains(addr, id) {
						p.report(&out, checkQueue, n,
							"raw %s at queue-layout address (%s) outside %s; use the cmdQueue API",
							sel.Sel.Name, addr, queueOwnerFile)
						break
					}
				}
			}
			return true
		})
	}
	return out
}

// queueOwnerChecks enforces rules 3 and 4 on the owner file itself. Both
// are per-function source-order properties of the raw header/slot stores:
// a head publish must be the chunk's final write (rule 3), and an
// applied-epoch store must sit inside an if whose condition carries a
// strict > comparison (rule 4).
func queueOwnerChecks(p *Pass, file *ast.File, out *[]Finding) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		var headPublish token.Pos // first head store seen, in source order
		var guards []*ast.IfStmt  // if statements whose condition compares with >
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if ifs, isIf := n.(*ast.IfStmt); isIf && condHasGreater(ifs.Cond) {
				guards = append(guards, ifs)
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			addr, kind := queueStoreKind(p, call)
			switch kind {
			case "head":
				if !headPublish.IsValid() {
					headPublish = call.Pos()
				}
			case "slot":
				if headPublish.IsValid() && call.Pos() > headPublish {
					p.report(out, checkQueue, call,
						"slot record written after the head publish (%s); the head store releases the chunk and must be the final write",
						addr)
				}
			case "epoch":
				guarded := false
				for _, g := range guards {
					if g.Body.Pos() <= call.Pos() && call.End() <= g.Body.End() {
						guarded = true
						break
					}
				}
				if !guarded {
					p.report(out, checkQueue, call,
						"applied-epoch store (%s) outside a monotonic guard; publish only under an `if epoch > applied` check",
						addr)
				}
			}
			return true
		})
	}
}

// queueStoreKind classifies a call as a raw store to the head word, a slot
// record, or the applied-epoch word of the queue layout, returning the
// address expression and the kind ("" when the call is none of these).
func queueStoreKind(p *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Write") || !memAccessors[sel.Sel.Name] || len(call.Args) == 0 {
		return "", ""
	}
	fn, ok := p.Unit.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !memAccessorOnPhysMem(fn) {
		return "", ""
	}
	addr := types.ExprString(call.Args[0])
	switch {
	case strings.Contains(addr, "cmdqOffHead"):
		return addr, "head"
	case strings.Contains(addr, "cmdqSlotSize"):
		return addr, "slot"
	case strings.Contains(addr, "cmdqOffEpoch"):
		return addr, "epoch"
	}
	return "", ""
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

// memAccessorOnPhysMem reports whether fn is a method of hw.PhysMem or of
// a MemIO-style interface declared in an internal package (pisces.MemIO) —
// i.e. a raw physical-memory accessor rather than some unrelated
// Read/Write method.
func memAccessorOnPhysMem(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if strings.HasSuffix(path, "internal/hw") {
		return true
	}
	rt := sig.Recv().Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	if named, isNamed := rt.(*types.Named); isNamed {
		name := named.Obj().Name()
		return strings.Contains(name, "MemIO") || strings.Contains(name, "PhysMem")
	}
	return false
}
