package pisces_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"covirt/internal/pisces"
)

func TestBusOrderAndAbort(t *testing.T) {
	var b pisces.Bus
	var order []string
	b.Subscribe(func(ev *pisces.Event) error { order = append(order, "first"); return nil })
	b.Subscribe(func(ev *pisces.Event) error { order = append(order, "second"); return nil })
	if err := b.Emit(&pisces.Event{Kind: pisces.EvMemAddPre}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}

	sentinel := errors.New("abort")
	b.Subscribe(func(ev *pisces.Event) error { return sentinel })
	b.Subscribe(func(ev *pisces.Event) error { order = append(order, "never"); return nil })
	order = nil
	if err := b.Emit(&pisces.Event{}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	for _, o := range order {
		if o == "never" {
			t.Error("handler after aborting handler ran")
		}
	}
}

func TestEventKindNames(t *testing.T) {
	if pisces.EvXememAttachPre.String() != "xemem-attach-pre" {
		t.Errorf("name = %q", pisces.EvXememAttachPre)
	}
	if pisces.EventKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

// TestEmitBatchFlushOrderIsDeterministic emits a batch whose first two
// events leave enclaves A and B with deferred work and whose final event
// is C's. The flush sweep must close A then B, in the order the batch
// named them, on every run.
func TestEmitBatchFlushOrderIsDeterministic(t *testing.T) {
	a, b, c := &pisces.Enclave{ID: 1}, &pisces.Enclave{ID: 2}, &pisces.Enclave{ID: 3}
	for run := 0; run < 50; run++ {
		var bus pisces.Bus
		var flushed []int
		bus.Subscribe(func(ev *pisces.Event) error {
			if ev.Kind == pisces.EvIngestFlush {
				flushed = append(flushed, ev.Enclave.ID)
			}
			return nil
		})
		err := bus.EmitBatch([]*pisces.Event{
			{Kind: pisces.EvMemRemovePost, Enclave: a},
			{Kind: pisces.EvMemRemovePost, Enclave: b},
			{Kind: pisces.EvMemRemovePost, Enclave: c},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{a.ID, b.ID}; !slices.Equal(flushed, want) {
			t.Fatalf("run %d: flushed enclaves %v, want %v", run, flushed, want)
		}
	}
}

// TestSubscribeDuringEmitRunsPrefix subscribes handlers on one goroutine
// while another emits. Handler i checks that exactly i handlers ran before
// it on the same event, so every emit runs a prefix of the subscription
// order: at least the handlers whose Subscribe returned before it started,
// at most those whose Subscribe had begun when it ended, and never one out
// of order. Run it under -race.
func TestSubscribeDuringEmitRunsPrefix(t *testing.T) {
	var b pisces.Bus
	const n = 200
	var begun, returned atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			lo := returned.Load()
			ev := &pisces.Event{Kind: pisces.EvMemAddPre}
			if err := b.Emit(ev); err != nil {
				t.Error(err)
				return
			}
			hi := begun.Load()
			if ran := int64(ev.Cost); ran < lo || ran > hi {
				t.Errorf("emit ran %d handlers; want between %d and %d", ran, lo, hi)
				return
			}
			if lo == n {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		want := uint64(i)
		begun.Store(int64(i + 1))
		b.Subscribe(func(ev *pisces.Event) error {
			if ev.Cost != want {
				return fmt.Errorf("handler %d ran after %d handlers", want, ev.Cost)
			}
			ev.Cost++
			return nil
		})
		returned.Store(int64(i + 1))
	}
	<-done
}
