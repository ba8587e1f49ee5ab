// Package analysis implements covirt-vet, the repository's domain-specific
// static-analysis suite. It is built purely on the standard library
// (go/parser, go/types, go/token, go/ast): packages are loaded and
// type-checked by this package itself, so the module can stay free of
// external dependencies.
//
// Each analyzer mechanically enforces one of the simulation's correctness
// invariants (see DESIGN.md "Static analysis & invariants"):
//
//   - physmem-errcheck: errors from internal/hw accessors must not be
//     discarded — a dropped bus error silently corrupts the simulation.
//   - lock-discipline: every mutex acquisition pairs with a deferred
//     release in the same function, and sync.Cond.Wait sits in a for loop
//     inside the one wait primitive, hw.Handoff.
//   - determinism: simulation packages must not consult wall-clock time or
//     the global math/rand source; cycle accounting must be reproducible.
//   - cost-accounting: every exported field of the hw.Costs cycle model is
//     charged by some simulation code — dead entries drift from the paper.
//   - queue-protocol: the controller↔hypervisor command queue is touched
//     only through cmdqueue.go, whose applied-epoch word only rises.
//   - ledger-conservation: resources carved from the Pisces ledger must be
//     bound to an owner — a discarded AllocMemory/AllocCores result leaks
//     memory or cores from the accounting.
//   - trace-coverage: every VM-exit reason and Hobbes event kind must reach
//     a trace emission site — the enum needs a Record call fed by its
//     String method, and each constant must be used by non-test code.
//   - hotalloc: functions marked //covirt:hot are steady-state hot paths
//     and must not allocate (make/append/map literals) inside their loops.
//
// Three module-scope analyzers run interprocedurally, over a call graph
// of the whole module with conservatively widened dynamic calls
// (callgraph.go) and a fixpoint dataflow driver:
//
//   - lock-order: the module-global lock-ordering graph (which lock
//     classes are acquired while which are held, through call chains)
//     must be acyclic — a cycle is a potential deadlock, reported with
//     the witness call chain establishing each edge.
//   - atomic-discipline: a struct field must not mix sync/atomic and
//     plain access; fields declared guarded by a mutex
//     (//covirt:guards <field,...> on the mutex field) are only written
//     with that mutex held, and a consistently lock-guarded field
//     written once without the lock is reported as a latent race.
//   - transitive-hot: everything reachable from the loops of a
//     //covirt:hot function must stay allocation-free and must not
//     consult wall-clock time or global math/rand — the hotalloc and
//     determinism invariants extended through the call graph.
//   - cap-discipline: every call chain reaching a resource-mutating sink
//     (EPT map/unmap, IPI/I-O grant tables, XEMEM registry, co-kernel
//     memory map) must name an internal/authority capability somewhere,
//     or carry a reviewed //covirt:ambient <reason> annotation.
//
// Vetted exceptions are annotated in the source with a directive comment
// on (or immediately above) the offending line:
//
//	//covirt:allow <check>[,<check>...] <reason>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Finding is one reported violation.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
	// Witness, for interprocedural findings, is the call/acquire chain
	// establishing the violation, one human-readable step per entry.
	Witness []string
}

// String renders the finding in the conventional file:line:col form,
// with witness steps indented below.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
	for _, w := range f.Witness {
		s += "\n\t" + w
	}
	return s
}

// Pass is the per-unit analysis context handed to analyzers.
type Pass struct {
	Mod  *Module
	Unit *Pkg
}

// report appends a finding for node n.
func (p *Pass) report(out *[]Finding, check string, n ast.Node, format string, args ...any) {
	*out = append(*out, Finding{
		Check: check,
		Pos:   p.Mod.Fset.Position(n.Pos()),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Exactly one of Run (per package unit) or
// RunModule (once per module, for cross-package invariants) is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Pass) []Finding
	RunModule func(m *Module) []Finding
}

// Analyzers lists every check in the suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		physmemErrcheck,
		lockDiscipline,
		determinism,
		costAccounting,
		queueProtocol,
		ledgerConservation,
		traceCoverage,
		genInvalidation,
		hotalloc,
		lockOrder,
		atomicDiscipline,
		transitiveHot,
		capDiscipline,
	}
}

// byName resolves a comma-separated check selection.
func byName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return Analyzers(), nil
	}
	all := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		all[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the module at or above root and runs the named checks (all of
// them when names is empty). Findings suppressed by //covirt:allow
// directives are dropped. The returned findings are sorted by position.
func Run(root string, names []string) ([]Finding, *Module, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	findings, err := RunModuleChecks(mod, names)
	return findings, mod, err
}

// CheckTime records one analyzer's wall-clock cost over a module.
type CheckTime struct {
	Name    string
	Elapsed time.Duration
}

// RunModuleChecks runs the named checks over an already-loaded module.
func RunModuleChecks(mod *Module, names []string) ([]Finding, error) {
	findings, _, err := RunModuleChecksTimed(mod, names)
	return findings, err
}

// RunModuleChecksTimed is RunModuleChecks, also reporting per-analyzer
// wall-clock times (in suite order). The first interprocedural analyzer
// to run pays for the shared call-graph construction.
func RunModuleChecksTimed(mod *Module, names []string) ([]Finding, []CheckTime, error) {
	checks, err := byName(names)
	if err != nil {
		return nil, nil, err
	}
	var findings []Finding
	var times []CheckTime
	for _, a := range checks {
		start := time.Now()
		if a.RunModule != nil {
			findings = append(findings, a.RunModule(mod)...)
		} else {
			for _, u := range mod.Units {
				findings = append(findings, a.Run(&Pass{Mod: mod, Unit: u})...)
			}
		}
		times = append(times, CheckTime{Name: a.Name, Elapsed: time.Since(start)})
	}
	findings = suppress(mod, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return findings, times, nil
}

// allowKey identifies one line of one file.
type allowKey struct {
	file string
	line int
}

// allowIndex maps file:line to the set of checks allowed there.
type allowIndex map[allowKey]map[string]bool

// buildAllowIndex collects every //covirt:allow directive in the module.
// It is built once per module (lazily) and shared: the suppression pass
// uses it to drop findings, and interprocedural analyzers use it as a
// traversal barrier — an allow on a call-site line vets everything
// beyond that call as off-path for the named checks.
func buildAllowIndex(mod *Module) allowIndex {
	if mod.allow != nil {
		return mod.allow
	}
	allowed := make(allowIndex)
	for _, u := range mod.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					checks, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					k := allowKey{pos.Filename, pos.Line}
					if allowed[k] == nil {
						allowed[k] = make(map[string]bool)
					}
					for _, ch := range checks {
						allowed[k][ch] = true
					}
				}
			}
		}
	}
	mod.allow = allowed
	return allowed
}

// allows reports whether check is allowed at file:line, by a directive
// on that line or the line directly above.
func (a allowIndex) allows(file string, line int, check string) bool {
	for _, l := range [2]int{line, line - 1} {
		if m := a[allowKey{file, l}]; m != nil && (m[check] || m["all"]) {
			return true
		}
	}
	return false
}

// barrier reports whether a //covirt:allow for check sits on the call
// site at pos: interprocedural analyzers stop traversing there.
func (a allowIndex) barrier(mod *Module, pos token.Pos, check string) bool {
	p := mod.Fset.Position(pos)
	return a.allows(p.Filename, p.Line, check)
}

// suppress drops findings covered by a //covirt:allow directive on the
// same line or the line directly above.
func suppress(mod *Module, findings []Finding) []Finding {
	allowed := buildAllowIndex(mod)
	out := findings[:0]
	for _, f := range findings {
		if allowed.allows(f.Pos.Filename, f.Pos.Line, f.Check) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// parseAllow extracts the check names from a //covirt:allow directive.
func parseAllow(text string) ([]string, bool) {
	rest, ok := cutDirective(text, "covirt:allow")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	var checks []string
	for _, c := range strings.Split(strings.TrimSuffix(fields[0], ":"), ",") {
		if c != "" {
			checks = append(checks, c)
		}
	}
	return checks, len(checks) > 0
}

// cutDirective strips a //name directive prefix from a comment, requiring
// a word boundary after the name (so covirt:allowed is not covirt:allow).
func cutDirective(text, name string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), name)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return rest, true
}

// isTestFile reports whether the file (by position) is a _test.go file.
func isTestFile(mod *Module, f *ast.File) bool {
	return strings.HasSuffix(mod.Fset.Position(f.Pos()).Filename, "_test.go")
}

// fileBase returns the base filename of f.
func fileBase(mod *Module, f *ast.File) string {
	return filepath.Base(mod.Fset.Position(f.Pos()).Filename)
}

// walkStack traverses root, invoking fn with each node and the stack of
// its ancestors (outermost first, n last).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(n, stack)
		return true
	})
}

// simPackages are the module-relative package suffixes whose cycle
// accounting must be deterministic and whose hw errors are load-bearing.
var simPackages = []string{
	"internal/hw",
	"internal/vmx",
	"internal/covirt",
	"internal/pisces",
	"internal/kitten",
	"internal/xemem",
	"internal/cluster",
}

// isSimPackage reports whether the unit belongs to the simulation core
// (harness, CLI, trace and workload-driver packages are exempt).
func isSimPackage(path string) bool {
	path = strings.TrimSuffix(path, ".test")
	for _, s := range simPackages {
		if strings.HasSuffix(path, s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// Check name constants, shared between the Analyzer declarations and
// their run functions (avoiding initialization cycles).
const (
	checkPhysmem       = "physmem-errcheck"
	checkLock          = "lock-discipline"
	checkDeterminism   = "determinism"
	checkCost          = "cost-accounting"
	checkQueue         = "queue-protocol"
	checkLedger        = "ledger-conservation"
	checkTrace         = "trace-coverage"
	checkGenInval      = "gen-invalidation"
	checkHotalloc      = "hotalloc"
	checkLockOrder     = "lock-order"
	checkAtomic        = "atomic-discipline"
	checkTransHot      = "transitive-hot"
	checkCapDiscipline = "cap-discipline"
)
