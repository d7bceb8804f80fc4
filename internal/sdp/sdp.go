// Package sdp implements the small subset of the Session Description
// Protocol (RFC 4566) VoIP call setup needs: describing one audio stream
// (G.711 µ-law, payload type 0) with its transport address, and the
// offer/answer exchange carried in INVITE and 200 OK bodies.
//
// A call writes one offer and one answer and reads each once, so the codec
// works in place: Marshal renders into one exactly-sized body, Parse slices
// its fields out of one copy of the input, and a session of one stream — the
// only kind a call makes — is one allocation together with that stream and
// its formats.
package sdp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ContentType is the MIME type for SDP bodies.
const ContentType = "application/sdp"

// Media describes one media stream.
type Media struct {
	Type    string // "audio"
	Port    uint16
	Proto   string   // "RTP/AVP"
	Formats []string // payload types, e.g. ["0"] for PCMU
}

// Session is a minimal SDP session description.
type Session struct {
	Username  string
	SessionID uint64
	Version   uint64
	Address   string // connection address (node ID)
	Name      string // s= line
	Media     []Media
}

// inlineFormats is how many payload types the streams of a session hold
// without an allocation of their own.
const inlineFormats = 4

// sessionBlock is a session with room for its first stream and the formats of
// its streams, allocated as one: NewAudioOffer, Answer and Parse of a
// one-stream description each cost one block.
type sessionBlock struct {
	s       Session
	media   [1]Media
	formats [inlineFormats]string
}

var (
	errNoCompatibleAudio = errors.New("sdp: no compatible audio stream in offer")
	errNoAudio           = errors.New("sdp: no audio stream")
)

// NewAudioOffer builds a one-stream audio session rooted at addr:port.
func NewAudioOffer(username, addr string, port uint16) *Session {
	b := &sessionBlock{}
	b.formats[0] = "0"
	b.media[0] = Media{Type: "audio", Port: port, Proto: "RTP/AVP", Formats: b.formats[:1:1]}
	b.s = Session{
		Username:  username,
		SessionID: 1,
		Version:   1,
		Address:   addr,
		Name:      "siphoc-call",
		Media:     b.media[:1:1],
	}
	return &b.s
}

// Answer builds the answer to offer, placing the local audio stream at
// addr:port. It returns an error if the offer has no compatible audio
// stream (we accept payload type 0, PCMU).
func Answer(offer *Session, username, addr string, port uint16) (*Session, error) {
	for _, m := range offer.Media {
		if m.Type != "audio" {
			continue
		}
		for _, f := range m.Formats {
			if f == "0" {
				return NewAudioOffer(username, addr, port), nil
			}
		}
	}
	return nil, errNoCompatibleAudio
}

// AudioEndpoint returns the remote audio address and port from a session.
func (s *Session) AudioEndpoint() (string, uint16, error) {
	for _, m := range s.Media {
		if m.Type == "audio" {
			return s.Address, m.Port, nil
		}
	}
	return "", 0, errNoAudio
}

// fixedLen is the length of everything Marshal writes for the session lines
// besides their values.
const fixedLen = len("v=0\r\n" + "o=" + " " + " " + " IN IP4 " + "\r\n" +
	"s=" + "\r\n" + "c=IN IP4 " + "\r\n" + "t=0 0\r\n")

// Marshal renders the session description into a body of its own, sized
// exactly. Fields that would break the line-oriented syntax (white space,
// empty values) are normalized, and a stream left with no type, protocol or
// format is not written: every description Marshal writes parses.
func (s *Session) Marshal() []byte {
	user, addr, name := orDash(sanitizeField(s.Username)), sanitizeField(s.Address), orDash(sanitizeLine(s.Name))
	if addr == "" {
		addr = "0.0.0.0"
	}
	n := fixedLen + len(user) + digits(s.SessionID) + digits(s.Version) + 2*len(addr) + len(name)
	for i := range s.Media {
		n += mediaLen(&s.Media[i])
	}
	b := make([]byte, 0, n)
	b = append(b, "v=0\r\no="...)
	b = append(b, user...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, s.SessionID, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, s.Version, 10)
	b = append(b, " IN IP4 "...)
	b = append(b, addr...)
	b = append(b, "\r\ns="...)
	b = append(b, name...)
	b = append(b, "\r\nc=IN IP4 "...)
	b = append(b, addr...)
	b = append(b, "\r\nt=0 0\r\n"...)
	for i := range s.Media {
		b = appendMedia(b, &s.Media[i])
	}
	return b
}

// cleanMedia returns m's type and protocol as Marshal writes them, and the
// bytes its formats take on the line, a space before each; 0 when the line is
// not written — RFC 4566 §5.14 requires at least one format.
func cleanMedia(m *Media) (typ, proto string, formatsLen int) {
	typ, proto = sanitizeField(m.Type), sanitizeField(m.Proto)
	if typ == "" || proto == "" {
		return "", "", 0
	}
	for _, f := range m.Formats {
		if f = sanitizeField(f); f != "" {
			formatsLen += 1 + len(f)
		}
	}
	return typ, proto, formatsLen
}

func mediaLen(m *Media) int {
	typ, proto, formatsLen := cleanMedia(m)
	if formatsLen == 0 {
		return 0
	}
	return len("m="+" "+" "+"\r\n") + len(typ) + digits(uint64(m.Port)) + len(proto) + formatsLen
}

func appendMedia(b []byte, m *Media) []byte {
	typ, proto, formatsLen := cleanMedia(m)
	if formatsLen == 0 {
		return b
	}
	b = append(b, "m="...)
	b = append(b, typ...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(m.Port), 10)
	b = append(b, ' ')
	b = append(b, proto...)
	for _, f := range m.Formats {
		if f = sanitizeField(f); f != "" {
			b = append(b, ' ')
			b = append(b, f...)
		}
	}
	return append(b, "\r\n"...)
}

func digits(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// sanitizeField strips from a single space-separated field every rune Parse
// splits fields at (unicode.IsSpace, as strings.Fields), and returns s itself
// when there is none. It keeps every other byte as it is, invalid UTF-8
// included, so it strips again until no space is left: taking a rune out can
// join the bytes around it into a new one.
func sanitizeField(s string) string {
	for hasSpace(s) {
		out := make([]byte, 0, len(s))
		for i := 0; i < len(s); {
			n, space := spaceAt(s, i)
			if !space {
				out = append(out, s[i:i+n]...)
			}
			i += n
		}
		s = string(out)
	}
	return s
}

func hasSpace(s string) bool {
	for i := 0; i < len(s); {
		n, space := spaceAt(s, i)
		if space {
			return true
		}
		i += n
	}
	return false
}

// spaceAt decodes the rune at s[i] the way a range loop does (an invalid byte
// is a one-byte RuneError) and reports its width and whether it is a space.
func spaceAt(s string, i int) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, c == ' ' || c >= '\t' && c <= '\r'
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	return n, unicode.IsSpace(r)
}

// sanitizeLine strips only line breaks (free-text fields like s=).
func sanitizeLine(s string) string {
	if !strings.ContainsAny(s, "\r\n") {
		return s
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\r' && s[i] != '\n' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// nextField returns the first space-separated field of s and what follows
// it; "" when s has no field left. It splits where strings.Fields does.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		n, space := spaceAt(s, i)
		if !space {
			break
		}
		i += n
	}
	start := i
	for i < len(s) {
		n, space := spaceAt(s, i)
		if space {
			break
		}
		i += n
	}
	return s[start:i], s[i:]
}

// fields fills dst with the leading fields of s and returns how many it
// found, at most len(dst).
func fields(s string, dst []string) int {
	n := 0
	for n < len(dst) {
		if dst[n], s = nextField(s); dst[n] == "" {
			break
		}
		n++
	}
	return n
}

// Parse decodes a session description. Lines may end in CRLF, LF or a bare
// CR. The session's strings are slices of one copy of data, and a session of
// one stream is a single block besides: two allocations.
func Parse(data []byte) (*Session, error) {
	b := &sessionBlock{}
	s := &b.s
	usedFormats := 0
	sawV := false
	for rest := string(data); rest != ""; {
		line := rest
		if i := strings.IndexAny(rest, "\r\n"); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, fmt.Errorf("sdp: malformed line %q", line)
		}
		val := line[2:]
		switch line[0] {
		case 'v':
			if val != "0" {
				return nil, fmt.Errorf("sdp: unsupported version %q", val)
			}
			sawV = true
		case 'o':
			var f [7]string
			if fields(val, f[:]) != 6 {
				return nil, fmt.Errorf("sdp: malformed o= line %q", line)
			}
			s.Username = f[0]
			id, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad session id: %v", err)
			}
			ver, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad session version: %v", err)
			}
			s.SessionID, s.Version = id, ver
			if s.Address == "" {
				s.Address = f[5]
			}
		case 's':
			s.Name = val
		case 'c':
			var f [4]string
			if fields(val, f[:]) != 3 {
				return nil, fmt.Errorf("sdp: malformed c= line %q", line)
			}
			s.Address = f[2]
		case 'm':
			typ, more := nextField(val)
			portField, more := nextField(more)
			proto, more := nextField(more)
			format, more := nextField(more)
			if format == "" { // fewer than four fields
				return nil, fmt.Errorf("sdp: malformed m= line %q", line)
			}
			port, err := strconv.ParseUint(portField, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad media port: %v", err)
			}
			// The formats go on the block's spare room while they fit;
			// append moves a list that does not to the heap.
			formats := b.formats[usedFormats:usedFormats]
			for ; format != ""; format, more = nextField(more) {
				formats = append(formats, format)
			}
			if len(formats) <= inlineFormats-usedFormats {
				usedFormats += len(formats)
			}
			m := Media{Type: typ, Port: uint16(port), Proto: proto, Formats: formats[:len(formats):len(formats)]}
			if s.Media == nil {
				b.media[0] = m
				s.Media = b.media[:1:1]
			} else {
				s.Media = append(s.Media, m)
			}
		case 't', 'a', 'b', 'i', 'u', 'e', 'p', 'r', 'z', 'k':
			// Tolerated and ignored.
		default:
			return nil, fmt.Errorf("sdp: unknown line type %q", line[0])
		}
	}
	if !sawV {
		return nil, fmt.Errorf("sdp: missing v= line")
	}
	if s.Address == "" {
		return nil, fmt.Errorf("sdp: missing connection address (o=/c=)")
	}
	return s, nil
}
