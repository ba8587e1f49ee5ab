package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// TestAnalyzersOnFixtures runs each analyzer against its fixture module
// under testdata/ and compares the full finding set (as module-relative
// file:line keys) against expectations. The fixtures also exercise the
// //covirt:allow directive (see physmem/use/use.go) and the seeded-source
// exemption (determinism/internal/hw/clock.go).
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		checks  []string
		want    []string
	}{
		{
			fixture: "physmem",
			checks:  []string{checkPhysmem},
			want: []string{
				"use/use.go:7",  // result ignored entirely
				"use/use.go:9",  // discarded via _
				"use/use.go:11", // unobservable under go
				// use/use.go:14 is suppressed by //covirt:allow
			},
		},
		{
			fixture: "lock",
			checks:  []string{checkLock},
			want: []string{
				"locks/locks.go:15",       // Lock without defer Unlock
				"locks/locks.go:21",       // RLock without defer RUnlock
				"locks/locks.go:37",       // Cond.Wait outside for loop
				"locks/locks.go:37",       // ... and outside hw.Handoff
				"locks/locks.go:45",       // Cond.Wait outside hw.Handoff
				"locks/locks.go:51",       // sync.NewCond outside hw.Handoff
				"internal/hw/other.go:8",  // Cond.Wait in hw, outside handoff.go
				"internal/hw/other.go:14", // channel receive in hw, outside handoff.go
				"internal/hw/other.go:19", // select in hw, outside handoff.go
				// internal/hw/handoff.go is the primitive: its NewCond
				// and looped Wait are allowed
			},
		},
		{
			fixture: "determinism",
			checks:  []string{checkDeterminism},
			want: []string{
				"internal/hw/clock.go:9",  // time.Now
				"internal/hw/clock.go:11", // time.Since
				"internal/hw/clock.go:13", // global rand.Intn
				// the seeded rand.New(rand.NewSource(...)) use is exempt,
				// and harness/ is not a sim package
			},
		},
		{
			fixture: "cost",
			checks:  []string{checkCost},
			want: []string{
				"internal/hw/costs.go:7", // Costs.Dead never charged
			},
		},
		{
			fixture: "ledger",
			checks:  []string{checkLedger},
			want: []string{
				"use/use.go:10", // allocation discarded entirely
				"use/use.go:12", // extent blank-assigned
				"use/use.go:17", // unobservable under go
				// use/use.go:20 is suppressed by //covirt:allow
			},
		},
		{
			fixture: "fabric",
			checks:  []string{checkLedger, checkDeterminism},
			want: []string{
				"internal/cluster/fabric.go:14", // time.Now in a sim package
				"use/use.go:7",                  // fabric charge discarded entirely
				"use/use.go:9",                  // charge blank-assigned
				"use/use.go:11",                 // unobservable under go
				// use/use.go:15 is suppressed by //covirt:allow
			},
		},
		{
			fixture: "tracecov",
			checks:  []string{checkTrace},
			want: []string{
				"internal/pisces/event.go:7", // EventKind has no Record emission site
				"internal/vmx/exit.go:13",    // ExitDead never used outside String
			},
		},
		{
			fixture: "tracecovmoved",
			checks:  []string{checkTrace},
			want: []string{
				"internal/pisces/event.go:6", // listed package declares no EventKind
				// internal/vmx is absent, so ExitReason is skipped
			},
		},
		{
			fixture: "queue",
			checks:  []string{checkQueue},
			want: []string{
				"internal/covirt/other.go:4",     // cmdQueue field access
				"internal/covirt/cmdqueue.go:25", // epoch published without monotonic guard
				// depth reads a field in the owner file; publishGood guards with >
			},
		},
		{
			fixture: "hotalloc",
			checks:  []string{checkHotalloc},
			want: []string{
				"internal/workloads/hot.go:11", // make in loop
				"internal/workloads/hot.go:12", // append in loop
				"internal/workloads/hot.go:13", // map literal in loop
				"internal/workloads/hot.go:19", // make in loop inside closure
				// line 26 is suppressed by //covirt:allow; cold is
				// unmarked; sized allocates before its loop
			},
		},
		{
			fixture: "lockorder",
			checks:  []string{checkLockOrder},
			want: []string{
				"locks/locks.go:18",  // AB: a->b via call, b->a local
				"locks/locks.go:41",  // Re: self-deadlock through helper
				"locks/locks.go:143", // Iface: x->y through interface widening
				// Clean orders consistently; Spawn's goroutine launch makes
				// no edge; Vetted's call edge carries //covirt:allow
			},
		},
		{
			fixture: "atomicdiscipline",
			checks:  []string{checkAtomic},
			want: []string{
				"fields/fields.go:22",  // bare read of atomic field
				"fields/fields.go:40",  // write outside declared guard
				"fields/fields.go:73",  // bare write to inferred-guarded field
				"fields/fields.go:102", // //covirt:guards names unknown field
				"fields/fields.go:127", // map delete outside declared guard
				"fields/fields.go:131", // map element write outside declared guard
				// Guarded.helper is proven locked on entry; NewInferred is a
				// constructor; MakeMsg writes a local copy; RacyVetted is
				// suppressed by //covirt:allow all; Table.Get only reads
			},
		},
		{
			fixture: "transhot",
			checks:  []string{checkTransHot},
			want: []string{
				"internal/workloads/hot.go:23", // time.Now behind interface dispatch
				"internal/workloads/hot.go:44", // append one hop from the loop
				"internal/workloads/hot.go:50", // map literal two hops down
				// setup is called before the loop; vetted's make carries a
				// suppression; flush is behind a //covirt:allow barrier
			},
		},
		{
			fixture: "capdiscipline",
			checks:  []string{checkCapDiscipline},
			want: []string{
				"internal/covirt/ctrl.go:17", // bare mutation, no capability
				"internal/covirt/ctrl.go:35", // bare chain Outer -> inner
				// MapChecked names a Cap param; MapAmbient is annotated;
				// MapVetted carries //covirt:allow; mech's only caller
				// names a capability
			},
		},
		{
			fixture: "geninvalidation",
			checks:  []string{checkGenInval},
			want: []string{
				"internal/hw/cache.go:22", // cache read, no gen consulted
				// validatedRead mentions gens, fill only writes, drop
				// invalidates, vetted carries //covirt:allow, and the
				// harness package is not a sim package
			},
		},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			root := filepath.Join("testdata", c.fixture)
			findings, mod, err := Run(root, c.checks)
			if err != nil {
				t.Fatal(err)
			}
			if len(mod.TypeErrors) > 0 {
				t.Fatalf("fixture has type errors: %v", mod.TypeErrors)
			}
			var got []string
			for _, f := range findings {
				rel, err := filepath.Rel(mod.Root, f.Pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), f.Pos.Line))
			}
			sort.Strings(got)
			want := append([]string(nil), c.want...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("findings = %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("finding %d = %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBuildConstraintExclusion pins the loader's default-build file
// selection: custom tags (race, integration) exclude a file, their
// negations and platform/release tags keep it. Without this, a
// //go:build race + !race twin pair type-checks as a redeclaration.
func TestBuildConstraintExclusion(t *testing.T) {
	cases := []struct {
		src      string
		excluded bool
	}{
		{"//go:build race\n\npackage p\n", true},
		{"//go:build !race\n\npackage p\n", false},
		{"//go:build integration && linux\n\npackage p\n", true},
		{"//go:build " + runtime.GOOS + "\n\npackage p\n", false},
		{"//go:build " + runtime.GOARCH + " && go1.18\n\npackage p\n", false},
		{"//go:build !" + runtime.GOOS + "\n\npackage p\n", true},
		{"package p\n\n//go:build race\n", false}, // after package clause: not a constraint
		{"package p\n", false},
	}
	fset := token.NewFileSet()
	for _, c := range cases {
		f, err := parser.ParseFile(fset, "x.go", c.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if got := buildExcluded(f); got != c.excluded {
			t.Errorf("buildExcluded(%q) = %v, want %v", c.src, got, c.excluded)
		}
	}
}

// TestUnknownCheckRejected ensures a bad -checks selection is an error,
// not a silent no-op — including when mixed with valid names.
func TestUnknownCheckRejected(t *testing.T) {
	if _, _, err := Run(filepath.Join("testdata", "lock"), []string{"no-such-check"}); err == nil {
		t.Fatal("unknown check accepted")
	}
	if _, _, err := Run(filepath.Join("testdata", "lock"), []string{checkLock, "no-such-check"}); err == nil {
		t.Fatal("unknown check accepted when mixed with a valid one")
	}
	if _, err := byName([]string{"lock-discipline,determinism"}); err == nil {
		t.Fatal("comma-joined names accepted as one check name")
	}
}

// TestLockOrderWitness pins the shape of interprocedural witness chains:
// each cycle edge renders as one holds-and-calls (or holds-and-acquires)
// step naming the functions, classes and module-relative positions.
func TestLockOrderWitness(t *testing.T) {
	findings, _, err := Run(filepath.Join("testdata", "lockorder"), []string{checkLockOrder})
	if err != nil {
		t.Fatal(err)
	}
	byMsg := make(map[string]Finding)
	for _, f := range findings {
		byMsg[f.Msg] = f
	}
	ab, ok := byMsg["lock-order cycle locks.AB.a -> locks.AB.b -> locks.AB.a: potential deadlock"]
	if !ok {
		t.Fatalf("AB cycle not reported; findings: %v", findings)
	}
	wantWitness := []string{
		"(*locks.AB).First holds locks.AB.a and calls (*locks.AB).lockB at locks/locks.go:18, which acquires locks.AB.b",
		"(*locks.AB).Second holds locks.AB.b and acquires locks.AB.a at locks/locks.go:29",
	}
	if len(ab.Witness) != len(wantWitness) {
		t.Fatalf("witness = %v, want %v", ab.Witness, wantWitness)
	}
	for i := range wantWitness {
		if ab.Witness[i] != wantWitness[i] {
			t.Errorf("witness[%d] = %q, want %q", i, ab.Witness[i], wantWitness[i])
		}
	}
	if len(byMsg["lock-order cycle locks.Re.m -> locks.Re.m: potential deadlock"].Witness) != 1 {
		t.Errorf("self-loop should carry exactly one witness step")
	}
}

// TestAllowDirectiveParsing covers the directive grammar.
func TestAllowDirectiveParsing(t *testing.T) {
	cases := []struct {
		text   string
		checks []string
		ok     bool
	}{
		{"//covirt:allow lock-discipline reason here", []string{"lock-discipline"}, true},
		{"// covirt:allow lock-discipline spaced form", []string{"lock-discipline"}, true},
		{"//covirt:allow a,b multi", []string{"a", "b"}, true},
		{"//covirt:allow all everything", []string{"all"}, true},
		{"//covirt:allow a,b: trailing colon on the list", []string{"a", "b"}, true},
		{"//covirt:allow lock-order,transitive-hot: colon form", []string{"lock-order", "transitive-hot"}, true},
		{"//covirt:allow a,,b empty element dropped", []string{"a", "b"}, true},
		{"//covirt:allow", nil, false},
		{"//covirt:allowed not the directive", nil, false},
		{"// plain comment", nil, false},
	}
	for _, c := range cases {
		got, ok := parseAllow(c.text)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != len(c.checks) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.checks)
			continue
		}
		for i := range got {
			if got[i] != c.checks[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.checks)
			}
		}
	}
}

// TestRepoSelfClean is the suite's own CI gate: the repository must stay
// free of findings (fix the code or annotate with //covirt:allow).
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	findings, mod, err := Run(filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range mod.TypeErrors {
		t.Errorf("type error: %v", te)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
