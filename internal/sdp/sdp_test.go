package sdp

import (
	"reflect"
	"testing"
	"testing/quick"

	"siphoc/internal/testutil"
)

func TestOfferRoundTrip(t *testing.T) {
	in := NewAudioOffer("alice", "10.0.0.1", 40000)
	out, err := Parse(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch:\n%+v\n%+v", in, out)
	}
}

func TestAnswerCompatible(t *testing.T) {
	offer := NewAudioOffer("alice", "10.0.0.1", 40000)
	ans, err := Answer(offer, "bob", "10.0.0.2", 40002)
	if err != nil {
		t.Fatal(err)
	}
	addr, port, err := ans.AudioEndpoint()
	if err != nil || addr != "10.0.0.2" || port != 40002 {
		t.Fatalf("endpoint = %s:%d %v", addr, port, err)
	}
}

func TestAnswerIncompatible(t *testing.T) {
	offer := &Session{Address: "x", Media: []Media{{Type: "audio", Port: 1, Proto: "RTP/AVP", Formats: []string{"96"}}}}
	if _, err := Answer(offer, "bob", "y", 2); err == nil {
		t.Fatal("incompatible offer answered")
	}
	video := &Session{Address: "x", Media: []Media{{Type: "video", Port: 1, Proto: "RTP/AVP", Formats: []string{"0"}}}}
	if _, err := Answer(video, "bob", "y", 2); err == nil {
		t.Fatal("video-only offer answered as audio")
	}
}

func TestParseToleratesExtraLines(t *testing.T) {
	raw := "v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=x\r\nc=IN IP4 10.0.0.1\r\nt=0 0\r\na=sendrecv\r\nm=audio 4000 RTP/AVP 0 8\r\n"
	s, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Media) != 1 || len(s.Media[0].Formats) != 2 {
		t.Fatalf("media = %+v", s.Media)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"o=- 1 1 IN IP4 h\r\n",         // missing v=
		"v=1\r\n",                      // wrong version
		"v=0\r\nm=audio x RTP/AVP 0",   // bad port
		"v=0\r\no=broken\r\n",          // bad origin
		"v=0\r\nq=quux\r\n",            // unknown line
		"v=0\r\nzz\r\n",                // not key=value
		"v=0\r\nc=IN IP4\r\n",          // short c=
		"v=0\r\nm=audio 1 RTP/AVP\r\n", // no formats
	}
	for _, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("Parse(%q) accepted", raw)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(user string, port uint16) bool {
		clean := ""
		for _, r := range user {
			if r > ' ' && r < 127 {
				clean += string(r)
			}
		}
		if clean == "" {
			clean = "u"
		}
		if len(clean) > 30 {
			clean = clean[:30]
		}
		in := NewAudioOffer(clean, "10.0.0.9", port)
		out, err := Parse(in.Marshal())
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalSkipsEmptyMedia: a stream whose type, protocol or formats
// sanitize to nothing is left out rather than written as an m= line Parse
// rejects.
func TestMarshalSkipsEmptyMedia(t *testing.T) {
	for _, m := range []Media{
		{Type: "audio", Port: 4000, Proto: "RTP/AVP", Formats: []string{" ", ""}},
		{Type: "audio", Port: 4000, Proto: "RTP/AVP"},
		{Type: " ", Port: 4000, Proto: "RTP/AVP", Formats: []string{"0"}},
		{Type: "audio", Port: 4000, Proto: "\t", Formats: []string{"0"}},
	} {
		s := &Session{Address: "10.0.0.1", Media: []Media{m, {Type: "audio", Port: 5000, Proto: "RTP/AVP", Formats: []string{"0"}}}}
		out, err := Parse(s.Marshal())
		if err != nil {
			t.Fatalf("%+v: %v\n%q", m, err, s.Marshal())
		}
		if len(out.Media) != 1 || out.Media[0].Port != 5000 {
			t.Fatalf("%+v: media = %+v, want only the stream on 5000", m, out.Media)
		}
	}
}

// TestCodecAllocs pins what a call's offer and answer cost: Marshal is the
// body alone, Parse the copy of the input and the session block, and an offer
// or an answer the block.
func TestCodecAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	offer := NewAudioOffer("alice", "10.0.0.1", 40000)
	wire := offer.Marshal()
	var err error
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Marshal", 1, func() { wire = offer.Marshal() }},
		{"Parse", 2, func() { _, err = Parse(wire) }},
		{"NewAudioOffer", 1, func() { offer = NewAudioOffer("alice", "10.0.0.1", 40000) }},
		{"Answer", 1, func() { _, err = Answer(offer, "bob", "10.0.0.2", 40002) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.name, got, c.max)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
