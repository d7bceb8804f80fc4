package sip

import (
	"testing"
)

// FuzzParse hammers the message parser: any input must either error or
// produce a message whose rendering (AppendTo) reparses cleanly (no panics, no
// drift).
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleInvite))
	f.Add([]byte("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP h:5060;branch=z9hG4bK-1\r\n" +
		"From: <sip:a@h>;tag=1\r\nTo: <sip:b@h>;tag=2\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("REGISTER sip:h SIP/2.0\r\nf: <sip:a@h>;tag=t\r\nt: <sip:a@h>\r\n" +
		"i: c\r\nCSeq: 1 REGISTER\r\nm: <sip:a@n:5062>\r\nExpires: 60\r\n\r\n"))
	f.Add([]byte("INVITE sip:x SIP/2.0\r\nContent-Length: 5\r\n\r\nabcde"))
	f.Add([]byte{0, 1, 2, 255})
	f.Add([]byte("OPTIONS sip:x@h SIP/2.0\r\nAuthorization: Digest username=\"u\", realm=\"r\"," +
		" nonce=\"n\", uri=\"sip:r\", response=\"x\", cnonce=\"c\", nc=00000001, qop=auth\r\n" +
		"From: <sip:a@h>;tag=t\r\nTo: <sip:x@h>\r\nCall-ID: c\r\nCSeq: 1 OPTIONS\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		wire := m.AppendTo(nil)
		m2, err := Parse(wire)
		if err != nil {
			t.Fatalf("marshal output unparseable: %v\ninput: %q\nwire: %q", err, data, wire)
		}
		// Second round trip must be a fixed point.
		wire2 := m2.AppendTo(nil)
		if string(wire) != string(wire2) {
			t.Fatalf("marshal not a fixed point:\n%q\n%q", wire, wire2)
		}
	})
}

// FuzzParseURI checks the URI parser never panics and that accepted URIs
// round-trip through String.
func FuzzParseURI(f *testing.F) {
	for _, s := range []string{
		"sip:alice@voicehoc.ch", "sips:b@h:5061", "sip:h;lr", "sip:@", "sip::", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		u, err := ParseURI(s)
		if err != nil {
			return
		}
		u2, err := ParseURI(u.String())
		if err != nil {
			t.Fatalf("canonical form unparseable: %q -> %q: %v", s, u.String(), err)
		}
		if u2.String() != u.String() {
			t.Fatalf("canonical form unstable: %q vs %q", u.String(), u2.String())
		}
	})
}

// FuzzParseNameAddr checks the name-addr parser.
func FuzzParseNameAddr(f *testing.F) {
	for _, s := range []string{
		`"Alice" <sip:a@h>;tag=1`, `<sip:b@h>`, `sip:c@h;tag=2`, `"unterminated <sip:x@y>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		na, err := ParseNameAddr(s)
		if err != nil {
			return
		}
		if _, err := ParseNameAddr(na.String()); err != nil {
			t.Fatalf("canonical name-addr unparseable: %q -> %q: %v", s, na.String(), err)
		}
	})
}

// FuzzDigest checks the digest header parsers.
func FuzzDigest(f *testing.F) {
	f.Add(`Digest realm="r", nonce="n"`)
	f.Add(`Digest username="u", realm="r", nonce="n", uri="sip:r", response="x", cnonce="c", nc=00000001, qop=auth`)
	f.Add(`Digest nc=zzz`)
	f.Fuzz(func(t *testing.T, s string) {
		if c, err := ParseDigestChallenge(s); err == nil {
			if _, err := ParseDigestChallenge(c.String()); err != nil {
				t.Fatalf("challenge canonical form unparseable: %v", err)
			}
		}
		if a, err := ParseDigestCredentials(s); err == nil {
			if _, err := ParseDigestCredentials(a.String()); err != nil {
				t.Fatalf("credentials canonical form unparseable: %v", err)
			}
		}
	})
}
