package sip

import (
	"strings"
	"testing"
)

func TestDigestChallengeRoundTrip(t *testing.T) {
	in := &DigestChallenge{Realm: "voicehoc.ch", Nonce: "n-123", Opaque: "op"}
	out, err := ParseDigestChallenge(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
	if _, err := ParseDigestChallenge("Basic foo"); err == nil {
		t.Fatal("non-digest accepted")
	}
	if _, err := ParseDigestChallenge(`Digest realm="x"`); err == nil {
		t.Fatal("missing nonce accepted")
	}
}

func TestDigestCredentialsRoundTrip(t *testing.T) {
	in := &DigestCredentials{
		Username: "alice", Realm: "voicehoc.ch", Nonce: "n-1",
		URI: "sip:voicehoc.ch", CNonce: "c-1", NC: 1, Response: "deadbeef",
	}
	out, err := ParseDigestCredentials(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestDigestRFC2617Vector(t *testing.T) {
	// The RFC 2617 §3.5 example (HTTP GET, qop=auth).
	got := DigestResponse(
		"Mufasa", "testrealm@host.com", "Circle Of Life",
		"GET", "/dir/index.html",
		"dcd98b7102dd2f0e8b11d0f600bfb0c093", "0a4f113b", 1,
	)
	if got != "6629fae49393a05397450978507c4ef1" {
		t.Fatalf("digest = %s", got)
	}
}

func TestChallengeAnswerVerify(t *testing.T) {
	c := &DigestChallenge{Realm: "voicehoc.ch", Nonce: "n-42"}
	a := c.Answer("alice", "secret", MethodRegister, "sip:voicehoc.ch", "cn-1", 1)
	if !a.Verify("secret", MethodRegister) {
		t.Fatal("valid credentials rejected")
	}
	if a.Verify("wrong", MethodRegister) {
		t.Fatal("wrong password accepted")
	}
	if a.Verify("secret", MethodInvite) {
		t.Fatal("method mismatch accepted")
	}
}

func TestMessageAuthHeaders(t *testing.T) {
	resp := &Message{MaxForwards: -1, Expires: -1}
	resp.SetChallenge(&DigestChallenge{Realm: "r", Nonce: "n"})
	c, ok := resp.Challenge()
	if !ok || c.Realm != "r" {
		t.Fatalf("challenge = %+v %v", c, ok)
	}
	req := &Message{MaxForwards: -1, Expires: -1}
	req.SetAuthorization(&DigestCredentials{Username: "u", Realm: "r", Nonce: "n",
		URI: "sip:r", CNonce: "c", NC: 1, Response: "x"})
	a, ok := req.Authorization()
	if !ok || a.Username != "u" {
		t.Fatalf("authorization = %+v %v", a, ok)
	}
	if _, ok := (&Message{}).Authorization(); ok {
		t.Fatal("authorization on empty message")
	}
}

func TestAuthHeadersSurviveWire(t *testing.T) {
	req := NewRequest(MethodRegister, MustParseURI("sip:voicehoc.ch"))
	req.From = &NameAddr{URI: MustParseURI("sip:alice@voicehoc.ch")}
	req.From = req.From.WithTag("t")
	req.To = &NameAddr{URI: MustParseURI("sip:alice@voicehoc.ch")}
	req.CallID = "c1"
	req.CSeq = CSeq{Seq: 2, Method: MethodRegister}
	req.SetAuthorization(&DigestCredentials{Username: "alice", Realm: "voicehoc.ch",
		Nonce: "n", URI: "sip:voicehoc.ch", CNonce: "c", NC: 1, Response: "abc"})
	wire := req.AppendTo(nil)
	if !strings.Contains(string(wire), "Authorization: Digest") {
		t.Fatalf("wire missing Authorization:\n%s", wire)
	}
	back, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := back.Authorization()
	if !ok || a.Username != "alice" || a.NC != 1 {
		t.Fatalf("reparsed auth = %+v %v", a, ok)
	}
}

func TestNonceSource(t *testing.T) {
	ns := NewNonceSource("realm")
	n1 := ns.Next()
	n2 := ns.Next()
	if n1 == n2 {
		t.Fatal("nonces not unique")
	}
	for i := range ns.MaxUses {
		if !ns.Use(n1) {
			t.Fatalf("use %d rejected", i)
		}
	}
	if ns.Use(n1) {
		t.Fatal("over-used nonce accepted")
	}
	if ns.Use("forged") {
		t.Fatal("unknown nonce accepted")
	}
}
