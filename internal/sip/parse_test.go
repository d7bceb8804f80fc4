package sip

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sampleInvite = "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-abc\r\n" +
	"Via: SIP/2.0/UDP 10.0.0.2:5062;branch=z9hG4bK-def;received=10.0.0.2\r\n" +
	"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=1928\r\n" +
	"To: <sip:bob@voicehoc.ch>\r\n" +
	"Call-ID: a84b4c76e66710@10.0.0.1\r\n" +
	"CSeq: 314159 INVITE\r\n" +
	"Contact: <sip:alice@10.0.0.1:5062>\r\n" +
	"Max-Forwards: 70\r\n" +
	"Content-Type: application/sdp\r\n" +
	"Content-Length: 4\r\n" +
	"\r\n" +
	"v=0\r\n"

func TestParseInvite(t *testing.T) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsRequest() || m.Method != MethodInvite {
		t.Fatalf("method = %q", m.Method)
	}
	if m.RequestURI.AddressOfRecord() != "bob@voicehoc.ch" {
		t.Fatalf("ruri = %v", m.RequestURI)
	}
	if len(m.Via) != 2 {
		t.Fatalf("via count = %d", len(m.Via))
	}
	if m.Via[0].Branch() != "z9hG4bK-abc" || m.Via[0].Port != 5060 {
		t.Fatalf("top via = %+v", m.Via[0])
	}
	if m.From.Display != "Alice" || m.From.Tag() != "1928" {
		t.Fatalf("from = %+v", m.From)
	}
	if m.To.Tag() != "" {
		t.Fatalf("to tag = %q", m.To.Tag())
	}
	if m.CSeq.Seq != 314159 || m.CSeq.Method != MethodInvite {
		t.Fatalf("cseq = %+v", m.CSeq)
	}
	if m.MaxForwards != 70 {
		t.Fatalf("max-forwards = %d", m.MaxForwards)
	}
	if string(m.Body) != "v=0\r" { // Content-Length 4 truncates the LF
		t.Fatalf("body = %q", m.Body)
	}
}

func TestParseCompactForms(t *testing.T) {
	raw := "OPTIONS sip:x@h SIP/2.0\r\n" +
		"v: SIP/2.0/UDP h:5060;branch=z9hG4bK-1\r\n" +
		"f: <sip:a@h>;tag=t1\r\n" +
		"t: <sip:x@h>\r\n" +
		"i: id1@h\r\n" +
		"CSeq: 1 OPTIONS\r\n" +
		"l: 0\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if m.CallID != "id1@h" || m.From.Tag() != "t1" {
		t.Fatalf("compact parse: %+v", m)
	}
}

func TestParseResponse(t *testing.T) {
	raw := "SIP/2.0 180 Ringing\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-x\r\n" +
		"From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>;tag=2\r\n" +
		"Call-ID: c1\r\nCSeq: 2 INVITE\r\nContent-Length: 0\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsResponse() || m.StatusCode != 180 || m.Reason != "Ringing" {
		t.Fatalf("response = %+v", m)
	}
	if want := (txKey{branch: "z9hG4bK-x", method: MethodInvite}); m.txKey() != want {
		t.Fatalf("txkey = %+v", m.txKey())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"garbage":          "hello world",
		"bad status":       "SIP/2.0 abc Oops\r\n\r\n",
		"missing from":     "OPTIONS sip:x@h SIP/2.0\r\nTo: <sip:x@h>\r\nCall-ID: 1\r\nCSeq: 1 OPTIONS\r\n\r\n",
		"missing callid":   "OPTIONS sip:x@h SIP/2.0\r\nFrom: <sip:a@h>\r\nTo: <sip:x@h>\r\nCSeq: 1 OPTIONS\r\n\r\n",
		"cseq mismatch":    "OPTIONS sip:x@h SIP/2.0\r\nFrom: <sip:a@h>\r\nTo: <sip:x@h>\r\nCall-ID: 1\r\nCSeq: 1 INVITE\r\n\r\n",
		"bad content len":  "OPTIONS sip:x@h SIP/2.0\r\nFrom: <sip:a@h>\r\nTo: <sip:x@h>\r\nCall-ID: 1\r\nCSeq: 1 OPTIONS\r\nContent-Length: 99\r\n\r\nshort",
		"bad via protocol": "OPTIONS sip:x@h SIP/2.0\r\nVia: HTTP/1.1 x\r\nFrom: <sip:a@h>\r\nTo: <sip:x@h>\r\nCall-ID: 1\r\nCSeq: 1 OPTIONS\r\n\r\n",
		"bad uri":          "OPTIONS mailto:x@h SIP/2.0\r\nFrom: <sip:a@h>\r\nTo: <sip:x@h>\r\nCall-ID: 1\r\nCSeq: 1 OPTIONS\r\n\r\n",
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: parse accepted %q", name, raw)
		}
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(m.AppendTo(nil))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("round trip drift:\n%+v\n%+v", m, m2)
	}
}

func TestURIRoundTrip(t *testing.T) {
	cases := []string{
		"sip:alice@voicehoc.ch",
		"sip:alice@voicehoc.ch:5062",
		"sip:voicehoc.ch",
		"sips:bob@secure.example:5061",
		"sip:carol@h;transport=udp;lr",
	}
	for _, s := range cases {
		u, err := ParseURI(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		u2, err := ParseURI(u.String())
		if err != nil {
			t.Fatalf("%s reparse: %v", u.String(), err)
		}
		if !reflect.DeepEqual(u, u2) {
			t.Fatalf("uri drift: %+v vs %+v", u, u2)
		}
	}
}

func TestURIErrors(t *testing.T) {
	for _, s := range []string{"", "bob@h", "sip:", "sip:a@h:notaport"} {
		if _, err := ParseURI(s); err == nil {
			t.Errorf("ParseURI(%q) accepted", s)
		}
	}
}

func TestNameAddrForms(t *testing.T) {
	cases := []struct {
		in      string
		display string
		aor     string
		tag     string
	}{
		{`"Alice Liddell" <sip:alice@h>;tag=9`, "Alice Liddell", "alice@h", "9"},
		{`<sip:bob@h:5070>`, "", "bob@h", ""},
		{`sip:carol@h;tag=3`, "", "carol@h", "3"},
		{`Bob <sip:bob@h>`, "Bob", "bob@h", ""},
	}
	for _, c := range cases {
		na, err := ParseNameAddr(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if na.Display != c.display || na.URI.AddressOfRecord() != c.aor || na.Tag() != c.tag {
			t.Fatalf("%q parsed to %+v", c.in, na)
		}
		// Round trip through canonical form.
		na2, err := ParseNameAddr(na.String())
		if err != nil || !reflect.DeepEqual(na, na2) {
			t.Fatalf("%q canonical drift: %+v vs %+v (%v)", c.in, na, na2, err)
		}
	}
}

func TestSplitTopLevel(t *testing.T) {
	in := `"Doe, John" <sip:j@h>;tag=1, <sip:k@h>`
	var got []string
	_ = forEachTopLevel(in, func(part string) error {
		got = append(got, part)
		return nil
	})
	if len(got) != 2 || !strings.Contains(got[0], "Doe, John") {
		t.Fatalf("split = %#v", got)
	}
}

// TestQuickRequestRoundTrip builds random-ish requests from constrained
// components and asserts AppendTo→Parse is the identity.
func TestQuickRequestRoundTrip(t *testing.T) {
	sanitize := func(s string, max int) string {
		var b strings.Builder
		for _, r := range s {
			if r > ' ' && r < 127 && !strings.ContainsRune(`<>"@;:,=`, r) {
				b.WriteRune(r)
			}
		}
		out := b.String()
		if out == "" {
			out = "x"
		}
		if len(out) > max {
			out = out[:max]
		}
		return out
	}
	// Hosts must stay within validHost's alphabet (alnum and ".-_"),
	// otherwise re-parsing correctly rejects the URI and the round trip
	// fails for reasons unrelated to the codec.
	sanitizeHost := func(s string, max int) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				b.WriteRune(r)
			case r == '.' || r == '-' || r == '_':
				b.WriteRune(r)
			}
		}
		out := b.String()
		if out == "" {
			out = "x"
		}
		if len(out) > max {
			out = out[:max]
		}
		return out
	}
	f := func(user, host, fromUser, callSuffix string, seq uint32, body []byte) bool {
		user, host = sanitize(user, 30), sanitizeHost(host, 30)
		fromUser, callSuffix = sanitize(fromUser, 30), sanitize(callSuffix, 30)
		m := NewRequest(MethodInvite, &URI{Scheme: "sip", User: user, Host: host})
		m.Via = []*Via{{Transport: "UDP", Host: host, Port: 5060,
			Params: ";branch=" + BranchPrefix + "-q"}}
		m.From = &NameAddr{URI: &URI{Scheme: "sip", User: fromUser, Host: host},
			Params: ";tag=t1"}
		m.To = &NameAddr{URI: &URI{Scheme: "sip", User: user, Host: host}}
		m.CallID = "c-" + callSuffix
		m.CSeq = CSeq{Seq: seq, Method: MethodInvite}
		m.Body = body
		if len(body) > 0 {
			m.ContentType = "application/octet-stream"
		}
		m2, err := Parse(m.AppendTo(nil))
		if err != nil {
			t.Logf("parse failed for %q: %v", m.AppendTo(nil), err)
			return false
		}
		if len(m.Body) == 0 && len(m2.Body) == 0 {
			m.Body, m2.Body = nil, nil
		}
		return reflect.DeepEqual(m, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestNewResponseCopiesIdentity(t *testing.T) {
	req, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(req, StatusRinging, "")
	if resp.Reason != "Ringing" {
		t.Fatalf("reason = %q", resp.Reason)
	}
	if resp.CallID != req.CallID || resp.CSeq != req.CSeq {
		t.Fatal("identity headers not copied")
	}
	if len(resp.Via) != len(req.Via) {
		t.Fatal("via stack not copied")
	}
	// The response shares the request's Via values, but not its Via list:
	// popping or pushing on one must not show in the other.
	resp.Via = append(resp.Via[1:], &Via{Transport: "UDP", Host: "pushed"})
	if len(req.Via) != 2 || req.Via[1].Host == "pushed" {
		t.Fatal("response shares its Via list with the request")
	}
}

func TestAddrParse(t *testing.T) {
	a, err := ParseAddr("10.0.0.1:5062")
	if err != nil || a.Node != "10.0.0.1" || a.Port != 5062 {
		t.Fatalf("a = %+v, %v", a, err)
	}
	b, err := ParseAddr("proxy.example")
	if err != nil || b.Port != DefaultPort {
		t.Fatalf("b = %+v, %v", b, err)
	}
}
