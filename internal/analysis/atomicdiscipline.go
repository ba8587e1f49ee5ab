package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// atomicDiscipline enforces per-field access discipline across the whole
// module. Every read/write of a struct field in non-test code is
// classified as
//
//   - atomic: the field's type is a sync/atomic type, or the site passes
//     &s.f to a sync/atomic function;
//   - guard-held: some mutex is held at the site — locally (lock facts,
//     lockfacts.go) or on entry, where "held on entry" is the
//     intersection of the held sets at every call site, propagated over
//     the call graph to a fixpoint (exported, address-taken and
//     test-referenced functions are roots with nothing held);
//   - bare: neither.
//
// Findings:
//
//  1. a field with any atomic access site must have no bare access —
//     mixing atomic and plain loads/stores is a data race even when the
//     plain side holds a lock the atomic side does not take;
//  2. a field listed in a //covirt:guards <field,...> directive on a
//     mutex field of the same struct must only be written while that
//     mutex is held (for a map-typed field, an element store, ++/-- or
//     delete/clear on its map counts as a write);
//  3. inferred guards: a field (unannotated, non-atomic) written at two
//     or more sites under one mutex class must not also be written bare
//     — the bare write is a latent race the race detector only catches
//     if the schedule cooperates.
//
// Writes from the function that just allocated the struct (the value is
// still unshared) are constructor writes and exempt everywhere.
var atomicDiscipline = &Analyzer{
	Name:      checkAtomic,
	Doc:       "struct fields must not mix atomic and bare access; guarded fields are written under their mutex",
	RunModule: runAtomicDiscipline,
}

// accessKind classifies one field access site.
type accessKind int

const (
	accRead accessKind = iota
	accWrite
	accAddr   // address taken outside sync/atomic: writable elsewhere
	accAtomic // &s.f passed to a sync/atomic function
)

// fieldAccess is one access site of a field class.
type fieldAccess struct {
	class string
	kind  accessKind
	pos   token.Pos
	node  string // enclosing graph-node key ("" if outside the graph)
	held  []string
	ctor  bool // write to a struct allocated in this function
}

// guardDecl is one //covirt:guards directive.
type guardDecl struct {
	mutexClass string
	fields     []string // protected field classes
	pos        token.Pos
}

func runAtomicDiscipline(m *Module) []Finding {
	g := m.CallGraph()
	scans := make(map[string]*lockScan, len(g.Keys()))
	declKey := make(map[*ast.FuncDecl]string)
	for _, k := range g.Keys() {
		n := g.Nodes[k]
		scans[k] = scanLocks(n.Unit, n.Decl.Body)
		declKey[n.Decl] = k
	}
	entry := heldAtEntry(g, scans)

	var out []Finding
	guards, atomicTyped := collectGuards(m, &out)

	// Gather every field access in non-test module code.
	var accesses []fieldAccess
	for _, u := range m.Units {
		if strings.HasSuffix(u.Path, ".test") {
			continue
		}
		for _, file := range u.Files {
			if isTestFile(m, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := declKey[fd]
				collectAccesses(u, fd, key, scans[key], entry, atomicTyped, &accesses)
			}
		}
	}

	byClass := make(map[string][]fieldAccess)
	var classes []string
	for _, a := range accesses {
		if byClass[a.class] == nil {
			classes = append(classes, a.class)
		}
		byClass[a.class] = append(byClass[a.class], a)
	}
	sort.Strings(classes)

	guardOf := make(map[string]guardDecl)
	for _, gd := range guards {
		for _, f := range gd.fields {
			guardOf[f] = gd
		}
	}

	for _, class := range classes {
		accs := byClass[class]
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })

		// Rule 1: atomic sites poison bare access.
		var firstAtomic token.Pos
		for _, a := range accs {
			if a.kind == accAtomic {
				firstAtomic = a.pos
				break
			}
		}
		if firstAtomic != token.NoPos {
			loc := m.Fset.Position(firstAtomic)
			for _, a := range accs {
				if a.kind == accAtomic || a.ctor {
					continue
				}
				out = append(out, Finding{
					Check: checkAtomic,
					Pos:   m.Fset.Position(a.pos),
					Msg: fmt.Sprintf("field %s mixes sync/atomic access (%s:%d) with this plain %s",
						classDisplay(m, class), relPath(m, loc.Filename), loc.Line, accessVerb(a.kind)),
				})
			}
			continue
		}

		// Rule 2: annotated guard.
		if gd, ok := guardOf[class]; ok {
			for _, a := range accs {
				if a.kind != accWrite && a.kind != accAddr || a.ctor {
					continue
				}
				if !holdsClass(a.held, gd.mutexClass) {
					out = append(out, Finding{
						Check: checkAtomic,
						Pos:   m.Fset.Position(a.pos),
						Msg: fmt.Sprintf("%s to field %s outside its declared guard %s (//covirt:guards)",
							accessVerb(a.kind), classDisplay(m, class), classDisplay(m, gd.mutexClass)),
					})
				}
			}
			continue
		}

		// Rule 3: inferred guard. Count writes per held mutex class; a
		// mutex guarding >= 2 writes makes lock-free writes findings.
		lockCount := make(map[string]int)
		for _, a := range accs {
			if a.kind != accWrite || a.ctor {
				continue
			}
			for _, h := range a.held {
				lockCount[h]++
			}
		}
		var guard string
		for cls, n := range lockCount {
			if n >= 2 && (guard == "" || cls < guard) {
				guard = cls
			}
		}
		if guard == "" {
			continue
		}
		for _, a := range accs {
			if a.kind != accWrite || a.ctor || len(a.held) > 0 {
				continue
			}
			out = append(out, Finding{
				Check: checkAtomic,
				Pos:   m.Fset.Position(a.pos),
				Msg: fmt.Sprintf("write to field %s without %s, which guards %d other writes (take the lock, or declare //covirt:guards)",
					classDisplay(m, class), classDisplay(m, guard), lockCount[guard]),
			})
		}
	}
	return out
}

func accessVerb(k accessKind) string {
	switch k {
	case accWrite:
		return "write"
	case accAddr:
		return "address-taken access"
	}
	return "read"
}

func holdsClass(held []string, class string) bool {
	for _, h := range held {
		if h == class {
			return true
		}
	}
	return false
}

// heldAtEntry computes, for every graph node, the lock classes held at
// every call site targeting it (their intersection) — the forward
// dataflow of the suite. Roots (exported, address-taken, referenced from
// tests, main/init) enter with nothing held; goroutine launches and
// function-literal call sites contribute an empty (respectively
// literal-local) held set, since those bodies run on other frames.
func heldAtEntry(g *CallGraph, scans map[string]*lockScan) map[string][]string {
	entry := make(map[string][]string, len(g.Keys()))
	top := make(map[string]bool, len(g.Keys())) // true: still unconstrained
	for _, k := range g.Keys() {
		n := g.Nodes[k]
		if isDataflowRoot(n) {
			entry[k] = nil
		} else {
			top[k] = true
		}
	}
	g.Propagate(func(n *FuncNode) bool {
		if top[n.Key] {
			return false // nothing known about this node's own entry yet
		}
		s := scans[n.Key]
		changed := false
		for _, site := range n.Sites {
			var heldHere []string
			switch {
			case site.Go:
				heldHere = nil
			case site.InLit:
				heldHere = s.callHeld[site.Pos]
			case site.Defer:
				heldHere = entry[n.Key]
			default:
				heldHere = unionClasses(entry[n.Key], s.callHeld[site.Pos])
			}
			for _, callee := range site.Callees {
				cn := g.Nodes[callee]
				if cn == nil || isDataflowRoot(cn) {
					continue
				}
				if top[callee] {
					delete(top, callee)
					entry[callee] = append([]string(nil), heldHere...)
					sort.Strings(entry[callee])
					changed = true
					continue
				}
				if next := intersectClasses(entry[callee], heldHere); len(next) != len(entry[callee]) {
					entry[callee] = next
					changed = true
				}
			}
		}
		return changed
	})
	return entry
}

// isDataflowRoot reports whether the function can be entered from
// outside the analyzed call sites with no locks held.
func isDataflowRoot(n *FuncNode) bool {
	if n.AddrTaken || n.TestRef {
		return true
	}
	name := n.Fn.Name()
	if name == "main" || name == "init" {
		return true
	}
	return n.Fn.Exported()
}

func unionClasses(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, v := range b {
		out = appendMissing(out, v)
	}
	sort.Strings(out)
	return out
}

func intersectClasses(a, b []string) []string {
	var out []string
	for _, v := range a {
		if holdsClass(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// collectGuards parses //covirt:guards directives on struct fields,
// reporting malformed ones, and records which field classes are typed as
// sync/atomic values or sync mutexes (exempt from access bookkeeping).
func collectGuards(m *Module, out *[]Finding) ([]guardDecl, map[string]bool) {
	var guards []guardDecl
	exempt := make(map[string]bool)
	for _, u := range m.Units {
		if strings.HasSuffix(u.Path, ".test") {
			continue
		}
		for _, file := range u.Files {
			if isTestFile(m, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				owner, ok := u.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || owner.Pkg() == nil {
					return true
				}
				ownerClass := owner.Pkg().Path() + "." + owner.Name()
				fieldNames := make(map[string]bool)
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fieldNames[name.Name] = true
						if t, ok := u.Info.Types[f.Type]; ok && syncExemptType(t.Type) {
							exempt[ownerClass+"."+name.Name] = true
						}
					}
				}
				for _, f := range st.Fields.List {
					protected, found := parseGuardsDirective(f)
					if !found {
						continue
					}
					if len(f.Names) != 1 {
						reportAt(m, out, f.Pos(), "//covirt:guards must annotate exactly one named mutex field")
						continue
					}
					gd := guardDecl{mutexClass: ownerClass + "." + f.Names[0].Name, pos: f.Pos()}
					for _, p := range protected {
						if !fieldNames[p] {
							reportAt(m, out, f.Pos(), fmt.Sprintf("//covirt:guards names unknown field %q of %s", p, classDisplay(m, ownerClass)))
							continue
						}
						gd.fields = append(gd.fields, ownerClass+"."+p)
					}
					guards = append(guards, gd)
				}
				return true
			})
		}
	}
	return guards, exempt
}

func reportAt(m *Module, out *[]Finding, pos token.Pos, msg string) {
	*out = append(*out, Finding{Check: checkAtomic, Pos: m.Fset.Position(pos), Msg: msg})
}

// parseGuardsDirective extracts the protected field list from a field's
// doc or line comment: //covirt:guards f1,f2 [reason...].
func parseGuardsDirective(f *ast.Field) ([]string, bool) {
	var groups []*ast.CommentGroup
	if f.Doc != nil {
		groups = append(groups, f.Doc)
	}
	if f.Comment != nil {
		groups = append(groups, f.Comment)
	}
	for _, cg := range groups {
		for _, c := range cg.List {
			rest, ok := cutDirective(c.Text, "covirt:guards")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return nil, true // malformed: directive with no fields
			}
			var names []string
			for _, n := range strings.Split(strings.TrimSuffix(fields[0], ":"), ",") {
				if n != "" {
					names = append(names, n)
				}
			}
			return names, true
		}
	}
	return nil, false
}

// syncExemptType reports field types whose access discipline is already
// type-safe (sync/atomic values) or that are the guards themselves
// (sync primitives, accessed only through their methods).
func syncExemptType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync/atomic":
		return true
	case "sync":
		return true
	}
	return false
}

// collectAccesses records every field access inside one declaration.
func collectAccesses(u *Pkg, fd *ast.FuncDecl, nodeKey string, scan *lockScan, entry map[string][]string, exempt map[string]bool, out *[]fieldAccess) {
	ctorVars := constructorVars(u, fd)
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s, ok := u.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		class, ok := fieldClassByIndex(s.Recv(), s.Index())
		if !ok || exempt[class] {
			return
		}
		if localValueAccess(u, sel, s) {
			return // a local copy: no other goroutine can observe it
		}
		kind := classifyAccess(u, sel, stack)
		if kind < 0 {
			return // intermediate hop of a longer selector: skip
		}
		var held []string
		scope := enclosingScope(fd, stack)
		if scope == fd.Body {
			held = unionClasses(entryHeld(entry, nodeKey), scanHeld(scan, scope, sel.Pos()))
		} else {
			// Inside a function literal: only the literal's own locks
			// are known to be held when it runs.
			held = scanHeld(scan, scope, sel.Pos())
		}
		*out = append(*out, fieldAccess{
			class: class,
			kind:  kind,
			pos:   sel.Pos(),
			node:  nodeKey,
			held:  held,
			ctor:  ctorVars[rootVar(u, sel)],
		})
	})
}

func entryHeld(entry map[string][]string, key string) []string {
	if key == "" {
		return nil
	}
	return entry[key]
}

func scanHeld(scan *lockScan, scope *ast.BlockStmt, pos token.Pos) []string {
	if scan == nil {
		return nil
	}
	return scan.heldAt(scope, pos)
}

// enclosingScope returns the innermost function-literal body containing
// the access, or the declaration body.
func enclosingScope(fd *ast.FuncDecl, stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			return lit.Body
		}
	}
	return fd.Body
}

// classifyAccess decides how a field selector is used. It returns -1 for
// selectors that are just hops of a longer selection path (x.a in
// x.a.b): only the full path's final field is the accessed class.
func classifyAccess(u *Pkg, sel *ast.SelectorExpr, stack []ast.Node) accessKind {
	// Skip if the parent extends the selection to a deeper field.
	if len(stack) >= 2 {
		if pSel, ok := stack[len(stack)-2].(*ast.SelectorExpr); ok && pSel.X == sel {
			if ps, ok := u.Info.Selections[pSel]; ok && ps.Kind() == types.FieldVal {
				return -1
			}
		}
	}
	parent := func(i int) ast.Node {
		if len(stack) >= i+1 {
			return stack[len(stack)-1-i]
		}
		return nil
	}
	// Written?
	if writes(parent(1), sel) {
		return accWrite
	}
	switch p := parent(1).(type) {
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			// &s.f: atomic if it feeds a sync/atomic call directly.
			if call, ok := parent(2).(*ast.CallExpr); ok && isAtomicCall(u, call) {
				return accAtomic
			}
			return accAddr
		}
	case *ast.RangeStmt:
		if ast.Unparen(p.Key) == sel || ast.Unparen(p.Value) == sel {
			return accWrite
		}
	case *ast.IndexExpr:
		// s.f[k] = v and s.f[k]++ edit the map a map-typed field holds.
		if p.X == sel && isMapField(u, sel) && writes(parent(2), p) {
			return accWrite
		}
	case *ast.CallExpr:
		// delete(s.f, k) and clear(s.f) edit the field's map too.
		fn, ok := ast.Unparen(p.Fun).(*ast.Ident)
		if ok && len(p.Args) > 0 && ast.Unparen(p.Args[0]) == sel && isMapField(u, sel) {
			if b, ok := u.Info.Uses[fn].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
				return accWrite
			}
		}
	}
	return accRead
}

// writes reports whether stmt assigns to x or increments or decrements it.
func writes(stmt ast.Node, x ast.Expr) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if ast.Unparen(lhs) == x {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(s.X) == x
	}
	return false
}

// isMapField reports whether the selected field holds a map.
func isMapField(u *Pkg, sel *ast.SelectorExpr) bool {
	_, ok := u.Info.TypeOf(sel).Underlying().(*types.Map)
	return ok
}

// isAtomicCall reports a call to a sync/atomic package function.
func isAtomicCall(u *Pkg, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// constructorVars returns the local variables of fd initialized from a
// fresh allocation (composite literal, &composite, or new): writes
// through them happen before the value is shared.
func constructorVars(u *Pkg, fd *ast.FuncDecl) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !freshAlloc(u, rhs) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := u.Info.Defs[id]; obj != nil {
					vars[obj] = true
				} else if obj := u.Info.Uses[id]; obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	return vars
}

// freshAlloc reports expressions that allocate a fresh value.
func freshAlloc(u *Pkg, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.AND && freshAlloc(u, e.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, builtin := u.Info.Uses[id].(*types.Builtin); builtin {
				return true
			}
		}
	}
	return false
}

// localValueAccess reports a field access rooted at a function-local
// variable of struct (non-pointer) type, reached through plain selectors
// with no pointer indirection: x.a.b where x is `var x T` or a value
// parameter/receiver. Such an access touches a local copy of the struct,
// so it is exempt from every discipline rule. Index expressions do not
// qualify (a slice element is shared backing), and Selection.Indirect
// rejects paths through embedded pointers.
func localValueAccess(u *Pkg, sel *ast.SelectorExpr, s *types.Selection) bool {
	if s.Indirect() {
		return false
	}
	e := ast.Expr(sel)
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			v, ok := u.Info.Uses[x].(*types.Var)
			if !ok || v.IsField() || pkgLevelVar(v) {
				return false
			}
			_, isPtr := v.Type().Underlying().(*types.Pointer)
			return !isPtr
		default:
			return false
		}
	}
}

// rootVar resolves the base identifier of a selector chain to its
// object (x in x.a.b), unwrapping parens, stars, and indexes.
func rootVar(u *Pkg, sel *ast.SelectorExpr) types.Object {
	e := ast.Expr(sel)
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return u.Info.Uses[x]
		default:
			return nil
		}
	}
}
