package cluster

import (
	"fmt"
	"sync"
	"testing"

	"covirt/internal/pisces"
)

func TestFedRegistryPublishResolveDrop(t *testing.T) {
	r := NewFedRegistry(8, 4)
	rec := Record{Name: "seg.a", Hash: pisces.NameHash("seg.a"), Node: 2, SegID: 7, Bytes: 1 << 20}
	if err := r.Publish(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Resolve(rec.Hash)
	if !ok || got != rec {
		t.Fatalf("Resolve = %+v, %v", got, ok)
	}
	// Republishing the same name (re-placement) updates in place.
	rec.Node = 3
	if err := r.Publish(rec); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Resolve(rec.Hash); got.Node != 3 {
		t.Fatalf("republish: Node = %d, want 3", got.Node)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	r.Drop(rec.Hash)
	if _, ok := r.Resolve(rec.Hash); ok {
		t.Fatal("resolved a dropped record")
	}
}

func TestFedRegistryHashCollision(t *testing.T) {
	r := NewFedRegistry(8, 4)
	if err := r.Publish(Record{Name: "a", Hash: 99}); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(Record{Name: "b", Hash: 99}); err == nil {
		t.Fatal("colliding publish of a different name accepted")
	}
}

func TestFedRegistrySharding(t *testing.T) {
	r := NewFedRegistry(5, 3) // rounds up to 8 shards
	if len(r.shards) != 8 {
		t.Fatalf("shard count = %d, want 8", len(r.shards))
	}
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		h := pisces.NameHash(fmt.Sprintf("name-%d", i))
		s := r.ShardOf(h)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf = %d", s)
		}
		home := r.HomeNode(h)
		if home != s%3 {
			t.Fatalf("HomeNode(%d) = %d, want shard %d mod 3", h, home, s)
		}
		seen[s] = true
	}
	if len(seen) < 4 {
		t.Errorf("256 names landed on only %d of 8 shards", len(seen))
	}
}

// TestFedRegistryConcurrent exercises the lock-free resolve path against
// concurrent publishers and droppers; the race detector is the oracle.
func TestFedRegistryConcurrent(t *testing.T) {
	r := NewFedRegistry(4, 8)
	const names = 64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("w%d/seg%d", g, i)
				rec := Record{Name: name, Hash: pisces.NameHash(name), Node: g}
				if err := r.Publish(rec); err != nil {
					t.Error(err)
				}
				if i%3 == 0 {
					r.Drop(rec.Hash)
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				for o := 0; o < 4; o++ {
					name := fmt.Sprintf("w%d/seg%d", o, i)
					if rec, ok := r.Resolve(pisces.NameHash(name)); ok && rec.Name != name {
						t.Errorf("Resolve(%q) returned %q", name, rec.Name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
