package sdp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse: any input either errors or yields a session whose Marshal
// output reparses to the same value.
func FuzzParse(f *testing.F) {
	f.Add(NewAudioOffer("alice", "10.0.0.1", 40000).Marshal())
	f.Add([]byte("v=0\r\no=- 1 1 IN IP4 h\r\ns=x\r\nc=IN IP4 h\r\nt=0 0\r\nm=audio 4000 RTP/AVP 0 8\r\n"))
	f.Add([]byte("v=0"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		s2, err := Parse(s.Marshal())
		if err != nil {
			t.Fatalf("marshal output unparseable: %v\nwire: %q", err, s.Marshal())
		}
		// The o=/s= placeholders normalize "" to "-"; align before diff.
		if s.Username == "" {
			s.Username = "-"
		}
		if s.Name == "" {
			s.Name = "-"
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip drift:\n%+v\n%+v", s, s2)
		}
	})
}

// FuzzParseMatchesReference: for any input, Parse makes the decision the
// codec it replaced (reference_test.go) makes, and when both accept, the
// sessions are equal and Marshal writes the bytes the old Marshal wrote.
func FuzzParseMatchesReference(f *testing.F) {
	f.Add(NewAudioOffer("alice", "10.0.0.1", 40000).Marshal())
	f.Add([]byte("v=0\r\no=- 1 1 IN IP4 h\r\ns=x\r\nc=IN IP4 h\r\nt=0 0\r\nm=audio 4000 RTP/AVP 0 8 18 96 97\r\nm=video 5000 RTP/AVP 31\r\n"))
	f.Add([]byte("v=0\no=a b 1 2 IN IP4 h\rm=audio  1 x 0\r\n"))
	f.Add([]byte("v=0\r\no=\xe2\x80 1 1 IN IP4 \x80h\r\n"))
	f.Add([]byte("v=0\r\nm=audio 1 RTP/AVP\r\n"))
	f.Add([]byte("v=0"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Parse(data)
		want, refErr := refParse(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q): err = %v, reference err = %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("Parse(%q):\n got %+v\nwant %+v", data, *got, *want)
		}
		if g, w := got.Marshal(), refMarshal(want); !bytes.Equal(g, w) {
			t.Fatalf("Marshal of Parse(%q):\n got %q\nwant %q", data, g, w)
		}
	})
}

// FuzzMarshalParses: whatever the fields of a session hold, Marshal writes a
// description Parse accepts, into a body sized exactly.
func FuzzMarshalParses(f *testing.F) {
	f.Add("alice", "10.0.0.1", "siphoc-call", uint64(1), uint64(1), "audio", uint16(4000), "RTP/AVP", "0", "8")
	f.Add("", "", "", uint64(0), uint64(0), "audio", uint16(4000), "RTP/AVP", " ", "")
	f.Add("a b", "h\v", "x\ry", uint64(1<<63), uint64(9), "", uint16(1), "RTP/AVP", "0", "")
	f.Add("\xe2\x80\v\x80", " ", "-", uint64(7), uint64(7), "audio", uint16(0), "　", "0", "\xc2\x85")
	f.Fuzz(func(t *testing.T, user, addr, name string, id, ver uint64, typ string, port uint16, proto, f1, f2 string) {
		s := &Session{Username: user, SessionID: id, Version: ver, Address: addr, Name: name,
			Media: []Media{{Type: typ, Port: port, Proto: proto, Formats: []string{f1, f2}}}}
		wire := s.Marshal()
		if len(wire) != cap(wire) {
			t.Fatalf("body of %d bytes in a buffer of %d", len(wire), cap(wire))
		}
		if _, err := Parse(wire); err != nil {
			t.Fatalf("Marshal wrote what Parse rejects: %v\nsession %+v\nwire %q", err, s, wire)
		}
	})
}
