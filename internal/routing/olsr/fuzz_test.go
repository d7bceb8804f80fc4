package olsr

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// onHello feeds a decoded HELLO through the wire path; tests drive the
// protocol with message structs, the frame handler with raw bodies.
func (p *Protocol) onHello(from netem.NodeID, m *Hello) {
	p.handleHello(from, m.AppendTo(nil))
}

// onTC feeds a decoded TC through the wire path; tests drive the protocol
// with message structs, the frame handler with raw bodies.
func (p *Protocol) onTC(from netem.NodeID, m *TC) {
	p.handleTC(from, m.AppendTo(nil))
}

// decodeHello and decodeTC are the test's own decoders of the two bodies, the
// oracle the receive path is held to: a body they reject must leave a
// protocol untouched, and one they accept must install what it advertises.
// Trailing bytes are ignored, as the receive path ignores them.
func decodeHello(b []byte) (*Hello, bool) {
	r := wire.NewReader(b)
	m := &Hello{}
	for n := int(r.U16()); n > 0 && r.Err() == nil; n-- {
		nb := HelloNeighbor{Addr: netem.NodeID(r.String())}
		nb.Link = r.U8()
		nb.MPR = r.U8() == 1
		m.Neighbors = append(m.Neighbors, nb)
	}
	return m, r.Err() == nil
}

func decodeTC(b []byte) (*TC, bool) {
	r := wire.NewReader(b)
	m := &TC{Orig: netem.NodeID(r.String())}
	m.Seq = r.U16()
	m.ANSN = r.U16()
	m.TTL = r.U8()
	for n := int(r.U16()); n > 0 && r.Err() == nil; n-- {
		m.Selectors = append(m.Selectors, netem.NodeID(r.String()))
	}
	return m, r.Err() == nil
}

// olsrState is everything a received HELLO or TC can change. Two instances
// fed the same messages on the same clock intern the same IDs in the same
// order, so their states compare equal.
type olsrState struct {
	IDs                     []netem.NodeID
	Links                   []linkState
	LinkSet, SelSet, TopoSt bitset
	TwoHop                  []bitset
	SelExp                  []int64
	Topo                    [][]topoEdge
	Dups                    map[dupKey]dupVal
}

func stateOf(p *Protocol) olsrState {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := olsrState{
		IDs: slices.Clone(p.nodes.ids), Links: slices.Clone(p.links),
		LinkSet: slices.Clone(p.linkSet), SelSet: slices.Clone(p.selSet), TopoSt: slices.Clone(p.topoSet),
		SelExp: slices.Clone(p.selExp), Dups: maps.Clone(p.dups),
	}
	for _, b := range p.twoHop {
		s.TwoHop = append(s.TwoHop, slices.Clone(b))
	}
	for _, edges := range p.topo {
		s.Topo = append(s.Topo, slices.Clone(edges))
	}
	return s
}

// idsOf names the members of a dense set.
func idsOf(p *Protocol, b bitset) []netem.NodeID {
	var out []netem.NodeID
	b.forEach(func(i uint32) { out = append(out, p.nodes.ids[i]) })
	slices.Sort(out)
	return out
}

// fuzzHost is one unstarted host on a fake clock: each input gets fresh
// protocol instances on it, which cost no goroutine and no timer.
func fuzzHost(f *testing.F) *netem.Host {
	net := netem.NewNetwork(netem.Config{Clock: clock.NewFake(time.Unix(1_000_000, 0)), Shards: 1})
	f.Cleanup(net.Close)
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		f.Fatal(err)
	}
	return h
}

// FuzzHandleHello drives the receive path with raw HELLO bodies: one the
// decoder rejects (a truncated body) changes nothing; one it accepts installs
// the sender's link — symmetric when it lists this node, a selector when it
// also marks this node MPR — and its symmetric neighbourhood as the sender's
// 2-hop set; and the AppendTo encoding of what was decoded installs the same.
func FuzzHandleHello(f *testing.F) {
	f.Add((&Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}, {Addr: "a", Link: LinkSym}, {Addr: "b", Link: LinkAsym}}}).AppendTo(nil))
	f.Add([]byte{})
	f.Add((&Hello{Neighbors: []HelloNeighbor{{Addr: "a", Link: LinkSym}}}).AppendTo(nil))
	f.Add([]byte{0, 2, 0, 1, 'a', 2, 0})
	h := fuzzHost(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		p := New(h, Config{})
		fresh := stateOf(p)
		p.handleHello("n1", body)
		m, ok := decodeHello(body)
		if !ok {
			if got := stateOf(p); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("rejected HELLO changed state:\n%+v\nwant %+v", got, fresh)
			}
			return
		}
		var sym, mpr bool
		var two []netem.NodeID
		for _, nb := range m.Neighbors {
			switch {
			case nb.Addr == "self":
				sym, mpr = true, mpr || nb.MPR
			case nb.Link == LinkSym && !slices.Contains(two, nb.Addr):
				two = append(two, nb.Addr)
			}
		}
		slices.Sort(two)
		fi, known := p.nodes.lookup("n1")
		if !known || !p.linkSet.has(fi) || p.links[fi].sym != sym || p.selSet.has(fi) != mpr {
			t.Fatalf("HELLO %+v: link known=%v sym=%v selector=%v, want sym=%v selector=%v",
				m, known, known && p.links[fi].sym, known && p.selSet.has(fi), sym, mpr)
		}
		if got := idsOf(p, p.twoHop[fi]); !slices.Equal(got, two) {
			t.Fatalf("HELLO %+v: 2-hop set %v, want %v", m, got, two)
		}
		q := New(h, Config{})
		q.handleHello("n1", m.AppendTo(nil))
		if got, want := stateOf(q), stateOf(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendTo round trip of %+v installed\n%+v\nwant %+v", m, got, want)
		}
	})
}

// FuzzHandleTC is FuzzHandleHello for TC bodies: one the decoder rejects, or
// this node's own TC come back, changes nothing; any other installs the
// origin's advertised selectors as its out-edges at the TC's ANSN and enters
// (origin, seq) in the duplicate set; and the AppendTo encoding of what was
// decoded installs the same.
func FuzzHandleTC(f *testing.F) {
	f.Add((&TC{Orig: "a", Seq: 1, ANSN: 2, TTL: 3, Selectors: []netem.NodeID{"x", "y", "x"}}).AppendTo(nil))
	f.Add([]byte{})
	f.Add((&TC{Orig: "self", Seq: 1, ANSN: 1, TTL: 1}).AppendTo(nil))
	f.Add([]byte{0, 1, 'a', 0, 1, 0, 1, 8, 0, 3, 0, 1, 'x'})
	h := fuzzHost(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		p := New(h, Config{})
		fresh := stateOf(p)
		p.handleTC("n1", body)
		m, ok := decodeTC(body)
		if !ok || m.Orig == "self" {
			if got := stateOf(p); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("TC %q (decoded %v) changed state:\n%+v\nwant %+v", body, ok, got, fresh)
			}
			return
		}
		oi, known := p.nodes.lookup(m.Orig)
		if !known {
			t.Fatalf("TC %+v: origin not interned", m)
		}
		if _, dup := p.dups[dupKey{oi, m.Seq}]; !dup {
			t.Fatalf("TC %+v: not in the duplicate set", m)
		}
		want := slices.Clone(m.Selectors)
		slices.Sort(want)
		want = slices.Compact(want)
		var got []netem.NodeID
		for _, e := range p.topo[oi] {
			if e.ansn != m.ANSN {
				t.Fatalf("TC %+v: edge at ANSN %d", m, e.ansn)
			}
			got = append(got, p.nodes.ids[e.dest])
		}
		slices.Sort(got)
		if !slices.Equal(got, want) || p.topoSet.has(oi) != (len(want) > 0) {
			t.Fatalf("TC %+v: out-edges %v (origin marked %v), want %v", m, got, p.topoSet.has(oi), want)
		}
		q := New(h, Config{})
		q.handleTC("n1", m.AppendTo(nil))
		if got, want := stateOf(q), stateOf(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendTo round trip of %+v installed\n%+v\nwant %+v", m, got, want)
		}
	})
}
