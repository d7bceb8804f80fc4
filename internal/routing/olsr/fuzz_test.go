package olsr

import (
	"reflect"
	"slices"
	"testing"

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
// on one network fed the same messages on the same clock grow their stores to
// the same handle count, so their states compare equal.
type olsrState struct {
	Nbs                     []neighbour
	LinkSet, SelSet, TopoSt bitset
	Topo                    [][]topoEdge
	DupRows                 []dupRow
}

func stateOf(p *Protocol) olsrState {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := olsrState{
		LinkSet: slices.Clone(p.linkSet), SelSet: slices.Clone(p.selSet), TopoSt: slices.Clone(p.topoSet),
		DupRows: slices.Clone(p.dupRows),
	}
	for _, nb := range p.nbs {
		nb.twoHop = slices.Clone(nb.twoHop)
		s.Nbs = append(s.Nbs, nb)
	}
	for _, edges := range p.topo {
		s.Topo = append(s.Topo, slices.Clone(edges))
	}
	return s
}

// idsOf names the members of a dense set.
func idsOf(p *Protocol, b bitset) []netem.NodeID {
	var out []netem.NodeID
	b.forEach(func(i uint32) { out = append(out, p.net.Handles().ID(i)) })
	slices.Sort(out)
	return out
}

// FuzzHandleHello drives the receive path with raw HELLO bodies: one the
// decoder rejects (a truncated body) changes nothing, the network's handle
// table included, so hostile bytes cannot grow it; one it accepts installs
// the sender's link — symmetric when it lists this node, a selector when it
// also marks this node MPR — and its symmetric neighbourhood as the sender's
// 2-hop set; and the AppendTo encoding of what was decoded installs the same.
func FuzzHandleHello(f *testing.F) {
	f.Add((&Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}, {Addr: "a", Link: LinkSym}, {Addr: "b", Link: LinkAsym}}}).AppendTo(nil))
	f.Add([]byte{})
	f.Add((&Hello{Neighbors: []HelloNeighbor{{Addr: "a", Link: LinkSym}}}).AppendTo(nil))
	f.Add([]byte{0, 2, 0, 1, 'a', 2, 0})
	_, h := soloHost(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		p := New(h, Config{})
		fresh, handles := stateOf(p), h.Network().Handles()
		p.handleHello("n1", body)
		m, ok := decodeHello(body)
		if !ok {
			if got := stateOf(p); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("rejected HELLO changed state:\n%+v\nwant %+v", got, fresh)
			}
			if h.Network().Handles() != handles {
				t.Fatalf("rejected HELLO %q grew the handle table", body)
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
		fi, known := p.known("n1")
		nb := p.neighbour(fi)
		if !known || nb == nil || nb.sym != sym || p.selSet.has(fi) != mpr {
			t.Fatalf("HELLO %+v: link known=%v sym=%v selector=%v, want sym=%v selector=%v",
				m, known, nb != nil && nb.sym, known && p.selSet.has(fi), sym, mpr)
		}
		if got := idsOf(p, nb.twoHop); !slices.Equal(got, two) {
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
// this node's own TC come back, changes nothing, the network's handle table
// included; any other installs the
// origin's advertised selectors as its out-edges at the TC's ANSN and enters
// (origin, seq) in the duplicate set; and the AppendTo encoding of what was
// decoded installs the same.
func FuzzHandleTC(f *testing.F) {
	f.Add((&TC{Orig: "a", Seq: 1, ANSN: 2, TTL: 3, Selectors: []netem.NodeID{"x", "y", "x"}}).AppendTo(nil))
	f.Add([]byte{})
	f.Add((&TC{Orig: "self", Seq: 1, ANSN: 1, TTL: 1}).AppendTo(nil))
	f.Add([]byte{0, 1, 'a', 0, 1, 0, 1, 8, 0, 3, 0, 1, 'x'})
	_, h := soloHost(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		p := New(h, Config{})
		fresh, handles := stateOf(p), h.Network().Handles()
		p.handleTC("n1", body)
		m, ok := decodeTC(body)
		if !ok || m.Orig == "self" {
			if got := stateOf(p); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("TC %q (decoded %v) changed state:\n%+v\nwant %+v", body, ok, got, fresh)
			}
			if h.Network().Handles() != handles {
				t.Fatalf("TC %q (decoded %v) grew the handle table", body, ok)
			}
			return
		}
		oi, known := p.known(m.Orig)
		if !known {
			t.Fatalf("TC %+v: origin not interned", m)
		}
		if p.dupRows[oi].find(m.Seq, h.Clock().Now().UnixNano()) < 0 {
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
			got = append(got, p.net.Handles().ID(e.dest))
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
