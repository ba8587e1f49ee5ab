package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockDiscipline enforces the repository's locking idiom:
//
//  1. every sync.Mutex/RWMutex Lock (or RLock) is paired with a deferred
//     Unlock (or RUnlock) of the same mutex later in the same function
//     body, so no early return or panic can leak a held lock — critical
//     sections that must release early are extracted into small locked
//     helpers instead;
//  2. sync.Cond.Wait is always enclosed in a for loop re-checking its
//     predicate (a bare Wait misses spurious and stolen wakeups);
//  3. sync.NewCond and sync.Cond.Wait appear only in the wait primitive,
//     internal/hw's handoff.go: every other wait goes through hw.Handoff,
//     so node crash, enclave teardown and core kill end it. In the rest
//     of internal/hw's non-test files a channel receive or a select
//     statement is a finding too: the package waits only through
//     hw.Handoff, and its tests coordinate goroutines as they like.
var lockDiscipline = &Analyzer{
	Name: checkLock,
	Doc:  "Lock pairs with defer Unlock in the same function; Cond.Wait sits in a for loop, only in hw.Handoff, and internal/hw waits on no channel",
	Run:  runLockDiscipline,
}

// condOwnerFile is the one file, in a package whose path ends in
// internal/hw, allowed to make and wait on a sync.Cond.
const condOwnerFile = "handoff.go"

// unlockFor maps an acquire method to its release method.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// syncCall inspects call; if it is a method call on a sync.Mutex,
// sync.RWMutex, sync.Locker or sync.Cond it returns the receiver
// expression rendered as source text, the method name, and the receiver
// type's name ("Mutex", "RWMutex", "Locker", "Cond").
func syncCall(p *Pass, call *ast.CallExpr) (recv, method, typ string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := p.Unit.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	rt := sig.Recv().Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "Locker", "Cond":
		return types.ExprString(sel.X), fn.Name(), named.Obj().Name(), true
	}
	return "", "", "", false
}

func runLockDiscipline(p *Pass) []Finding {
	var out []Finding
	inHW := strings.HasSuffix(strings.TrimSuffix(p.Unit.Path, ".test"), "internal/hw")
	for _, file := range p.Unit.Files {
		condOwner := inHW && fileBase(p.Mod, file) == condOwnerFile
		if inHW && !condOwner && !isTestFile(p.Mod, file) {
			hwChannelWaits(p, file, &out)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lockCheckFunc(p, fn.Body, condOwner, &out)
				}
			case *ast.FuncLit:
				lockCheckFunc(p, fn.Body, condOwner, &out)
				return false // the literal's own Inspect found nested lits
			}
			return true
		})
	}
	return out
}

// hwChannelWaits reports each channel receive and select statement in
// file, an internal/hw file other than the wait primitive's. A select is
// one finding, whatever its cases receive.
func hwChannelWaits(p *Pass, file *ast.File, out *[]Finding) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			p.report(out, checkLock, n, "select in internal/hw outside handoff.go; wait through hw.Handoff")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				p.report(out, checkLock, n, "channel receive in internal/hw outside handoff.go; wait through hw.Handoff")
			}
		}
		return true
	})
}

// isNewCond reports whether call is sync.NewCond.
func isNewCond(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Unit.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "NewCond"
}

// lockCheckFunc applies the rules to one function body, without
// descending into nested function literals (they are separate scopes with
// their own defers). condOwner marks the wait primitive's file.
func lockCheckFunc(p *Pass, body *ast.BlockStmt, condOwner bool, out *[]Finding) {
	type acquire struct {
		call   *ast.CallExpr
		recv   string
		method string
	}
	type release struct {
		recv   string
		method string
		pos    int
	}
	var acquires []acquire
	var deferred []release

	walkStack(body, func(n ast.Node, stack []ast.Node) {
		if insideNestedFuncLit(stack, body) {
			return
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return
		}
		if !condOwner && isNewCond(p, call) {
			p.report(out, checkLock, call,
				"sync.NewCond outside hw.Handoff; wait through hw.Handoff so crash, teardown and kill end the wait")
			return
		}
		recv, method, typ, ok := syncCall(p, call)
		if !ok {
			return
		}
		inDefer := len(stack) >= 2 && isDeferStmt(stack[len(stack)-2], call)
		switch {
		case typ == "Cond" && method == "Wait":
			if !enclosedInFor(stack, body) {
				p.report(out, checkLock, call,
					"%s.Wait() must run inside a for loop re-checking its predicate", recv)
			}
			if !condOwner {
				p.report(out, checkLock, call,
					"%s.Wait() outside hw.Handoff; wait through hw.Handoff so crash, teardown and kill end the wait", recv)
			}
		case (method == "Lock" || method == "RLock") && typ != "Cond" && !inDefer:
			acquires = append(acquires, acquire{call, recv, method})
		case (method == "Unlock" || method == "RUnlock") && inDefer:
			deferred = append(deferred, release{recv, method, int(call.Pos())})
		}
	})

	for _, a := range acquires {
		want := unlockFor[a.method]
		found := false
		for _, r := range deferred {
			if r.recv == a.recv && r.method == want && r.pos > int(a.call.Pos()) {
				found = true
				break
			}
		}
		if !found {
			p.report(out, checkLock, a.call,
				"%s.%s() is not followed by defer %s.%s() in this function; use defer or extract a locked helper",
				a.recv, a.method, a.recv, want)
		}
	}
}

// isDeferStmt reports whether parent is a defer statement of call.
func isDeferStmt(parent ast.Node, call *ast.CallExpr) bool {
	d, ok := parent.(*ast.DeferStmt)
	return ok && d.Call == call
}

// insideNestedFuncLit reports whether the current node sits inside a
// function literal nested under body (such nodes belong to another scope).
func insideNestedFuncLit(stack []ast.Node, body *ast.BlockStmt) bool {
	// Find body in the stack, then look for a FuncLit deeper than it.
	started := false
	for _, n := range stack {
		if n == ast.Node(body) {
			started = true
			continue
		}
		if !started {
			continue
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// enclosedInFor reports whether the innermost statement context of the
// current node (within body, not crossing function literals) is a for or
// range loop.
func enclosedInFor(stack []ast.Node, body *ast.BlockStmt) bool {
	started := false
	inFor := false
	for _, n := range stack {
		if n == ast.Node(body) {
			started = true
			continue
		}
		if !started {
			continue
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			inFor = true
		case *ast.FuncLit:
			inFor = false // a new function scope resets the loop context
		}
	}
	return inFor
}
