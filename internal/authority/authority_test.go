package authority_test

import (
	"sync/atomic"
	"testing"

	"covirt/internal/authority"
)

func TestMintVerify(t *testing.T) {
	tb := authority.NewTable()
	c := tb.Mint(1, authority.KindMemory, authority.RightsAll, authority.MemScope(0x1000, 0x2000), "root")
	if c.ID == 0 || c.Gen != 1 {
		t.Fatalf("unexpected cap %+v", c)
	}
	if !tb.Verify(c, 1, authority.KindMemory, authority.RightWrite) {
		t.Fatal("verify of freshly minted cap failed")
	}
	if !tb.Covers(c, 1, authority.KindMemory, authority.RightMap, authority.MemScope(0x1800, 0x100)) {
		t.Fatal("covers rejected in-scope range")
	}
	if tb.Covers(c, 1, authority.KindMemory, authority.RightMap, authority.MemScope(0x2800, 0x1000)) {
		t.Fatal("covers accepted out-of-scope range")
	}
}

func TestForgedCapFails(t *testing.T) {
	tb := authority.NewTable()
	c := tb.Mint(2, authority.KindIPI, authority.RightSend, authority.IPIScope(3, 0xF0), "ipi")

	wrongHolder := c
	wrongHolder.Holder = 7
	if tb.Verify(wrongHolder, 7, authority.KindIPI, authority.RightSend) {
		t.Fatal("forged holder verified")
	}
	widened := c
	widened.Rights = authority.RightsAll
	if tb.Verify(widened, 2, authority.KindIPI, authority.RightDelegate) {
		t.Fatal("forged rights verified")
	}
	wrongKind := c
	wrongKind.Kind = authority.KindMemory
	if tb.Verify(wrongKind, 2, authority.KindMemory, authority.RightSend) {
		t.Fatal("forged kind verified")
	}
	bogus := authority.Cap{ID: 99, Gen: 1, Holder: 2, Kind: authority.KindIPI, Rights: authority.RightSend}
	if tb.Verify(bogus, 2, authority.KindIPI, authority.RightSend) {
		t.Fatal("out-of-range id verified")
	}
}

func TestDelegateNarrowsOnly(t *testing.T) {
	tb := authority.NewTable()
	root := tb.Mint(0, authority.KindMemory, authority.RightsAll, authority.WildScope(), "root")
	child, err := tb.Delegate(root, 1, authority.RightRead|authority.RightWrite|authority.RightDelegate,
		authority.MemScope(0x1000, 0x1000), "child")
	if err != nil {
		t.Fatalf("delegate: %v", err)
	}
	if !tb.Covers(child, 1, authority.KindMemory, authority.RightWrite, authority.MemScope(0x1000, 0x800)) {
		t.Fatal("child covers failed")
	}
	// Widening rights must fail.
	if _, err := tb.Delegate(child, 2, authority.RightsAll, authority.MemScope(0x1000, 0x100), "w"); err == nil {
		t.Fatal("rights widening accepted")
	}
	// Escaping scope must fail.
	if _, err := tb.Delegate(child, 2, authority.RightRead, authority.MemScope(0x3000, 0x100), "e"); err == nil {
		t.Fatal("scope escape accepted")
	}
	// Delegating from a cap without RightDelegate must fail.
	leaf, err := tb.Delegate(child, 2, authority.RightRead, authority.MemScope(0x1000, 0x100), "leaf")
	if err != nil {
		t.Fatalf("leaf delegate: %v", err)
	}
	if _, err := tb.Delegate(leaf, 3, authority.RightRead, authority.MemScope(0x1000, 0x10), "x"); err == nil {
		t.Fatal("delegation from non-delegable cap accepted")
	}
}

func TestRevokeRecursive(t *testing.T) {
	tb := authority.NewTable()
	root := tb.Mint(0, authority.KindXemem, authority.RightsAll, authority.XememScope(5), "seg")
	a, _ := tb.Delegate(root, 1, authority.RightAttach|authority.RightDelegate, authority.XememScope(5), "a")
	b, _ := tb.Delegate(a, 2, authority.RightAttach, authority.XememScope(5), "b")

	revoked, err := tb.Revoke(a)
	if err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if len(revoked) != 2 || revoked[0].Cap.ID != a.ID || revoked[1].Cap.ID != b.ID {
		t.Fatalf("unexpected revocation set %+v", revoked)
	}
	if tb.Alive(a) || tb.Alive(b) {
		t.Fatal("revoked caps still alive")
	}
	if !tb.Alive(root) {
		t.Fatal("parent died with child revocation")
	}
	// Double revoke of a dead key is an error.
	if _, err := tb.Revoke(a); err == nil {
		t.Fatal("double revoke accepted")
	}
}

func TestRevokeHolder(t *testing.T) {
	tb := authority.NewTable()
	root := tb.Mint(0, authority.KindMemory, authority.RightsAll, authority.WildScope(), "root")
	c1, _ := tb.Delegate(root, 1, authority.RightsAll, authority.MemScope(0, 0x1000), "e1-mem")
	shared, _ := tb.Delegate(c1, 2, authority.RightRead, authority.MemScope(0, 0x100), "e1-to-e2")
	c2, _ := tb.Delegate(root, 2, authority.RightsAll, authority.MemScope(0x2000, 0x1000), "e2-mem")

	revoked := tb.RevokeHolder(1)
	// Holder 1's cap dies, and so does what it delegated onward to holder 2.
	if len(revoked) != 2 {
		t.Fatalf("expected 2 revocations, got %+v", revoked)
	}
	if tb.Alive(c1) || tb.Alive(shared) {
		t.Fatal("holder revocation incomplete")
	}
	if !tb.Alive(c2) || !tb.Alive(root) {
		t.Fatal("holder revocation overreached")
	}
}

func TestResolveAndLookup(t *testing.T) {
	tb := authority.NewTable()
	c := tb.Mint(3, authority.KindIO, authority.RightsAll, authority.IOScope(0x70, 0x71), "rtc")
	got, ok := tb.Resolve(c.Ref())
	if !ok || got != c {
		t.Fatalf("resolve mismatch: %+v vs %+v", got, c)
	}
	if _, ok := tb.Lookup(c.ID); !ok {
		t.Fatal("lookup of live cap failed")
	}
	if _, err := tb.Revoke(c); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Resolve(c.Ref()); ok {
		t.Fatal("resolve of revoked ref succeeded")
	}
	if _, ok := tb.Lookup(c.ID); ok {
		t.Fatal("lookup of revoked cap succeeded")
	}
}

func TestEnforcementToggle(t *testing.T) {
	tb := authority.NewTable()
	c := tb.Mint(1, authority.KindMemory, authority.RightRead, authority.MemScope(0, 0x1000), "m")
	if _, err := tb.Revoke(c); err != nil {
		t.Fatal(err)
	}
	tb.SetEnforced(false)
	if !tb.Verify(c, 1, authority.KindMemory, authority.RightRead) {
		t.Fatal("unenforced verify should pass")
	}
	if !tb.Alive(c) {
		t.Fatal("unenforced alive should pass")
	}
	denies := tb.Denies.Load()
	if denies == 0 {
		t.Fatal("denies not counted while unenforced")
	}
	tb.SetEnforced(true)
	if tb.Alive(c) {
		t.Fatal("enforced alive passed for revoked cap")
	}
}

func TestCapsOfAndHolders(t *testing.T) {
	tb := authority.NewTable()
	root := tb.Mint(0, authority.KindMemory, authority.RightsAll, authority.WildScope(), "root")
	tb.Delegate(root, 2, authority.RightRead, authority.MemScope(0, 0x100), "a")
	tb.Delegate(root, 1, authority.RightRead, authority.MemScope(0x100, 0x100), "b")
	infos := tb.CapsOf(2)
	if len(infos) != 1 || infos[0].Label != "a" || infos[0].Parent != root.ID {
		t.Fatalf("capsOf mismatch: %+v", infos)
	}
	h := tb.Holders()
	if len(h) != 3 || h[0] != 0 || h[1] != 1 || h[2] != 2 {
		t.Fatalf("holders mismatch: %v", h)
	}
}

func BenchmarkAlive(b *testing.B) {
	tb := authority.NewTable()
	c := tb.Mint(1, authority.KindIPI, authority.RightSend, authority.IPIScope(0, 0xF0), "hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tb.Alive(c) {
			b.Fatal("dead")
		}
	}
}

func TestAliveZeroAlloc(t *testing.T) {
	tb := authority.NewTable()
	c := tb.Mint(1, authority.KindMemory, authority.RightsAll, authority.WildScope(), "hot")
	allocs := testing.AllocsPerRun(100, func() {
		tb.Alive(c)
		tb.Verify(c, 1, authority.KindMemory, authority.RightMap)
	})
	if allocs != 0 {
		t.Fatalf("hot-path verification allocates: %v allocs/op", allocs)
	}
}

// TestVerifyWhileTableGrows runs lock-free Verify and Alive on one
// goroutine while another mints and delegates far past the table's slot
// capacity, so publishes both fill slots in place and grow the slots.
// Every key the reader has seen published must verify. Run it under -race:
// the race detector checks that the in-place slot fill is ordered before
// any reader's access to it.
func TestVerifyWhileTableGrows(t *testing.T) {
	tb := authority.NewTable()
	const n = 1000
	caps := make([]authority.Cap, n)
	var published atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		root := tb.Mint(0, authority.KindMemory, authority.RightsAll, authority.WildScope(), "root")
		caps[0] = root
		published.Store(1)
		for i := 1; i < n; i++ {
			if i%7 == 0 {
				caps[i] = tb.Mint(i, authority.KindIPI, authority.RightSend, authority.IPIScope(i, 0xF0), "ipi")
			} else {
				c, err := tb.Delegate(root, i, authority.RightMap, authority.MemScope(uint64(i)<<21, 1<<21), "mem")
				if err != nil {
					t.Error(err)
					return
				}
				caps[i] = c
			}
			published.Store(int64(i + 1))
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		seen := published.Load()
		for i := int64(0); i < seen; i++ {
			c := caps[i]
			if !tb.Alive(c) || !tb.Verify(c, c.Holder, c.Kind, c.Rights) {
				t.Fatalf("published cap %d (%+v) failed verification", i, c)
			}
		}
	}
	if got := published.Load(); got != n {
		t.Fatalf("minter stopped after %d of %d keys", got, n)
	}
}
