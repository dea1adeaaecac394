package network

import (
	"runtime"
	"testing"
	"weak"

	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topo"
)

// observerFixture builds a small fabric for delivery-observer tests.
func observerFixture(t *testing.T) *Fabric {
	t.Helper()
	tp, err := topo.New(topo.SmallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := routing.NewPolicy(tp, routing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	fab, err := New(eng, tp, pol, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fab
}

// TestMultipleDeliveryObservers: several observers coexist, all fire for
// every delivery in registration order, and removal detaches exactly one.
func TestMultipleDeliveryObservers(t *testing.T) {
	f := observerFixture(t)
	var order []string
	idA := f.AddDeliveryObserver(func(Delivery) { order = append(order, "a") })
	idB := f.AddDeliveryObserver(func(Delivery) { order = append(order, "b") })

	send := func() {
		t.Helper()
		if err := f.Send(0, 5, 1024, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Engine().Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if got, want := len(order), 2; got != want {
		t.Fatalf("got %d observer firings, want %d", got, want)
	}
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("observers fired out of registration order: %v", order)
	}

	if !f.RemoveDeliveryObserver(idA) {
		t.Fatal("RemoveDeliveryObserver did not find a registered observer")
	}
	if f.RemoveDeliveryObserver(idA) {
		t.Fatal("second removal of the same id succeeded")
	}
	order = order[:0]
	send()
	if len(order) != 1 || order[0] != "b" {
		t.Fatalf("after removing a: firings = %v, want [b]", order)
	}
	_ = idB
}

// TestResetClearsObservers: Reset drops every observer, and a stale id from
// before the Reset can never remove an observer registered afterwards.
func TestResetClearsObservers(t *testing.T) {
	f := observerFixture(t)
	fired := 0
	stale := f.AddDeliveryObserver(func(Delivery) { fired++ })
	f.Engine().Reset(1)
	f.Reset()
	if f.RemoveDeliveryObserver(stale) {
		t.Fatal("stale pre-Reset observer id removed something")
	}
	kept := 0
	f.AddDeliveryObserver(func(Delivery) { kept++ })
	if f.RemoveDeliveryObserver(stale) {
		t.Fatal("stale id aliased a post-Reset observer")
	}
	if err := f.Send(0, 5, 1024, SendOptions{Mode: routing.Adaptive}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || kept != 1 {
		t.Fatalf("fired/kept = %d/%d, want 0/1", fired, kept)
	}
}

// TestRemovedObserverUnreachable: removing an observer drops the fabric's
// last reference to it, so whatever its closure captured can be collected
// (a pooled system must not keep a finished job's state alive).
func TestRemovedObserverUnreachable(t *testing.T) {
	f := observerFixture(t)
	var ref weak.Pointer[[64]byte]
	id := func() ObserverID {
		obj := new([64]byte)
		ref = weak.Make(obj)
		return f.AddDeliveryObserver(func(Delivery) { obj[0]++ })
	}()
	runtime.GC()
	if ref.Value() == nil {
		t.Fatal("a registered observer's captured state was collected")
	}
	if !f.RemoveDeliveryObserver(id) {
		t.Fatal("RemoveDeliveryObserver did not find a registered observer")
	}
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a removed observer's captured state is still reachable from the fabric")
	}
	runtime.KeepAlive(f)
}
