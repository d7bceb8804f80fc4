package olsr

import (
	"reflect"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// perHandleBytes sums cap × element size over p's per-handle stores — every
// slice among its fields, nested structs included, whose length is the
// handle count the stores cover — and names them.
func perHandleBytes(p *Protocol) (bytes int, stores []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.hops)
	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Len() == n {
				bytes += v.Cap() * int(v.Type().Elem().Size())
				stores = append(stores, name)
			}
		}
	}
	walk(reflect.ValueOf(p).Elem(), "")
	return bytes, stores
}

// spares counts the rebuild scratch on the free list.
func spares() int {
	var held []*recomputeScratch
	for s := scratchFree.Take(); s != nil; s = scratchFree.Take() {
		held = append(held, s)
	}
	for _, s := range held {
		scratchFree.Put(s)
	}
	return len(held)
}

// TestStoreBytesPerHandle: on a converged 16×16 grid every instance keeps at
// most 80 bytes per node handle — the route table (hops, via), the TC edges
// by origin and the duplicate rows — because what only a neighbour has lives
// in the neighbour table, sized by the node's degree. No instance keeps
// rebuild scratch: the one shard runs one rebuild at a time, so the grid's
// rebuilds share at most one scratch off the free list.
func TestStoreBytesPerHandle(t *testing.T) {
	const side = 16
	spare := spares()

	fake := clock.NewFake(time.Unix(2_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake, Shards: 1})
	defer net.Close()
	hosts, err := netem.Grid(net, side, side, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, gridConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer protos[i].Stop()
	}
	for range 30 {
		if _, ok := protos[0].NextHop(hosts[len(hosts)-1].ID()); ok {
			break
		}
		fake.Sleep(time.Second)
	}
	routeAt(t, protos[0], hosts[len(hosts)-1].ID())

	for i, p := range protos {
		bytes, stores := perHandleBytes(p)
		if per := float64(bytes) / float64(len(hosts)); per > 80 {
			t.Fatalf("node %d keeps %.1f B per handle in %v, want ≤ 80", i, per, stores)
		}
		if deg := len(p.nbs); deg < 2 || deg > 4 {
			t.Fatalf("node %d has %d rows in its neighbour table, want its 2–4 grid neighbours", i, deg)
		}
	}
	if n := spares(); n > max(spare, 1) {
		t.Fatalf("%d rebuild scratches on the free list after a one-shard grid (%d before), want at most one more", n, spare)
	}
}
