package sip

import (
	"os"
	"path/filepath"
	"testing"

	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// proxiedInvite is an INVITE as the benchmark's tap captures it off a chain:
// past the caller's proxy, so two Vias and a Record-Route, with an SDP offer.
const proxiedInvite = "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP n.1:5060;branch=z9hG4bK-n.1-5060-1\r\n" +
	"Via: SIP/2.0/UDP n.1:5062;branch=z9hG4bK-n.1-5062-3\r\n" +
	"Record-Route: <sip:n.1:5060;lr>\r\n" +
	"From: <sip:alice@voicehoc.ch>;tag=tag-n.1-2\r\n" +
	"To: <sip:bob@voicehoc.ch>\r\n" +
	"Call-ID: cid-1@n.1\r\n" +
	"CSeq: 1 INVITE\r\n" +
	"Contact: <sip:alice@n.1:5062>\r\n" +
	"Max-Forwards: 69\r\n" +
	"User-Agent: siphoc-softphone/1.0\r\n" +
	"Content-Type: application/sdp\r\n" +
	"Content-Length: 90\r\n" +
	"\r\n" +
	"v=0\r\no=alice 1 1 IN IP4 n.1\r\ns=siphoc-call\r\nc=IN IP4 n.1\r\nt=0 0\r\nm=audio 32769 RTP/AVP 0\r\n"

// benchInvite is the message BenchmarkSIPParse parses.
const benchInvite = "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-abc\r\n" +
	"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=1928\r\n" +
	"To: <sip:bob@voicehoc.ch>\r\n" +
	"Call-ID: a84b4c76e66710@10.0.0.1\r\n" +
	"CSeq: 314159 INVITE\r\n" +
	"Contact: <sip:alice@10.0.0.1:5062>\r\n" +
	"Max-Forwards: 70\r\nContent-Length: 0\r\n\r\n"

func skipAllocPin(t *testing.T) {
	t.Helper()
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestParseInviteAllocBudget pins what a parse costs: the block the message
// and its headers live in, the backing string, and the body.
func TestParseInviteAllocBudget(t *testing.T) {
	skipAllocPin(t)
	for _, c := range []struct {
		name   string
		raw    string
		budget float64
	}{
		{"proxied INVITE with SDP", proxiedInvite, 5},
		{"BenchmarkSIPParse's", benchInvite, 4},
	} {
		raw := []byte(c.raw)
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := Parse(raw); err != nil {
				t.Fatal(err)
			}
		}); allocs > c.budget {
			t.Errorf("%s: %.1f allocations per parse, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestCloneAllocBudget pins a clone at the one struct copy.
func TestCloneAllocBudget(t *testing.T) {
	skipAllocPin(t)
	m, err := Parse([]byte(proxiedInvite))
	if err != nil {
		t.Fatal(err)
	}
	var c *Message
	if allocs := testing.AllocsPerRun(200, func() { c = m.Clone() }); allocs > 1 {
		t.Errorf("%.1f allocations per clone, budget 1", allocs)
	}
	if c.CallID != m.CallID {
		t.Fatal("clone lost the Call-ID")
	}
}

// extend appends to every list of the message, which must not reach the
// backing array of any other message's list.
func extend(m *Message, mark string) {
	na := &NameAddr{URI: &URI{Scheme: "sip", Host: mark}}
	m.Via = append(m.Via, &Via{Transport: "UDP", Host: mark})
	m.Route = append(m.Route, na)
	m.RecordRoute = append(m.RecordRoute, na)
	m.Contact = append(m.Contact, na)
	m.Other = append(m.Other, Header{"X-Appended", mark})
	m.Body = append(m.Body, mark...)
}

// mutate applies every way there is of changing a message: each one replaces
// a field's value and none writes through it, so no other message sharing the
// old values can tell.
func mutate(m *Message) {
	m.From = m.From.WithTag("mutated-from")
	m.To = m.To.WithTag("mutated-to")
	top := &Via{Transport: "UDP", Host: "pushed", Port: 5060, Params: Params("").With("branch", BranchPrefix+"-pushed")}
	m.Via = append([]*Via{top}, m.Via...) // push, as SendRequest does
	if resp, _, err := PrepareResponseForward(m, Addr{Node: "pushed", Port: 5060}); err == nil {
		m.Via = resp.Via // pop
	}
	if len(m.Route) > 0 {
		m.Route = m.Route[1:] // pop, as PrepareForward does
	}
	rr := &NameAddr{URI: &URI{Scheme: "sip", Host: "rr", Params: ";lr"}}
	m.RecordRoute = append([]*NameAddr{rr}, m.RecordRoute...)
	if m.IsRequest() {
		m.RequestURI = &URI{Scheme: "sip", User: "elsewhere", Host: "h", Port: 5070}
	}
	m.SetAuthorization(&DigestCredentials{Username: "u", Realm: "r", Nonce: "n", Response: "x"})
	m.Body = []byte("replaced")
	m.MaxForwards, m.CallID = 1, "mutated"
	extend(m, "mutated")
}

// checkCloneIsolation parses raw and changes clones of the message and the
// message itself in every way there is, requiring the bytes of the others to
// stay what they were.
func checkCloneIsolation(t *testing.T, raw []byte) {
	t.Helper()
	m, err := Parse(raw)
	if err != nil {
		return
	}
	wire := func(m *Message) string { return string(m.AppendTo(nil)) }
	want := wire(m)
	// Lists grown side by side.
	a, b := m.Clone(), m.Clone()
	extend(a, "a")
	wantA := wire(a)
	extend(b, "b")
	if got := wire(a); got != wantA {
		t.Fatalf("appending to one clone's lists changed another's:\n got %q\nwant %q", got, wantA)
	}
	// A clone changed, then the original.
	c, d := m.Clone(), m.Clone()
	mutate(c)
	wantC := wire(c)
	if got := wire(m); got != want {
		t.Fatalf("changing a clone changed the original:\n got %q\nwant %q", got, want)
	}
	mutate(m)
	if got := wire(d); got != want {
		t.Fatalf("changing the original or a clone changed another clone:\n got %q\nwant %q", got, want)
	}
	if wire(a) != wantA || wire(c) != wantC {
		t.Fatal("changing the original changed a clone changed before it")
	}
}

func isolationSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{[]byte(sampleInvite), []byte(proxiedInvite), []byte(benchInvite)}
	golden, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("no golden messages: %v", err)
	}
	for _, path := range golden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	return seeds
}

// TestCloneIsolation is the ownership rule of Message as a test: messages
// share header values and never write through them.
func TestCloneIsolation(t *testing.T) {
	for _, raw := range isolationSeeds(t) {
		checkCloneIsolation(t, raw)
	}
	// The same for the derivations the stack and the proxies use: none of them
	// may change the message it derives from.
	sa, sb, _ := pair(t, netem.Config{})
	sb.OnRequest(func(tx *ServerTx) { _ = tx.RespondCode(StatusBusyHere, "") })
	m, err := Parse([]byte(proxiedInvite))
	if err != nil {
		t.Fatal(err)
	}
	want := string(m.AppendTo(nil))
	fwd, err := PrepareForward(m, Addr{Node: "n.1", Port: 5060})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sa.Await(fwd, sb.Addr()) // pushes a Via, draws a 486 and its ACK
	if err != nil {
		t.Fatal(err)
	}
	if up, _, err := PrepareResponseForward(resp, sa.Addr()); err != nil || len(up.Via) != 2 {
		t.Fatalf("response relay: %v, %+v", err, up)
	}
	mutate(NewResponse(m, StatusRinging, ""))
	mutate(BuildCancel(fwd))
	if got := string(m.AppendTo(nil)); got != want {
		t.Fatalf("forwarding a message changed it:\n got %q\nwant %q", got, want)
	}
	if len(fwd.Via) != 3 || len(resp.Via) != 3 {
		t.Fatalf("forwarded request has %d Vias and its response %d, want 3 and 3", len(fwd.Via), len(resp.Via))
	}
}

// FuzzCloneIsolation runs the isolation check on any message that parses.
func FuzzCloneIsolation(f *testing.F) {
	for _, raw := range isolationSeeds(f) {
		f.Add(raw)
	}
	f.Fuzz(checkCloneIsolation)
}
