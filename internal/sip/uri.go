package sip

import (
	"fmt"
	"strconv"
	"strings"
)

// URI is a SIP URI of the form sip:user@host:port;param=value.
type URI struct {
	Scheme string // "sip" (default) or "sips"
	User   string
	Host   string
	Port   uint16 // 0 means unspecified (default 5060)
	Params Params
}

// DefaultPort is the well-known SIP port.
const DefaultPort uint16 = 5060

// ParseURI parses a SIP URI.
func ParseURI(s string) (*URI, error) {
	u := &URI{}
	if err := parseURIInto(u, s); err != nil {
		return nil, err
	}
	return u, nil
}

// parseURIInto parses s into a caller-supplied URI, letting callers that
// embed a URI in a larger struct (ParseNameAddr) do one allocation for both.
func parseURIInto(u *URI, s string) error {
	u.Scheme = "sip"
	rest := s
	switch {
	case strings.HasPrefix(rest, "sips:"):
		u.Scheme = "sips"
		rest = rest[len("sips:"):]
	case strings.HasPrefix(rest, "sip:"):
		rest = rest[len("sip:"):]
	default:
		return fmt.Errorf("sip: uri %q: missing sip: scheme", s)
	}
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		u.Params = parseParams(rest[i:])
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		u.User = rest[:i]
		rest = rest[i+1:]
	}
	if rest == "" {
		return fmt.Errorf("sip: uri %q: empty host", s)
	}
	host, port, err := splitHostPort(rest)
	if err != nil {
		return fmt.Errorf("sip: uri %q: %v", s, err)
	}
	if !validHost(host) {
		return fmt.Errorf("sip: uri %q: invalid host %q", s, host)
	}
	if !validUser(u.User) {
		return fmt.Errorf("sip: uri %q: invalid user %q", s, u.User)
	}
	u.Host, u.Port = host, port
	return nil
}

// validHost accepts hostnames and dotted addresses: alphanumerics plus
// ".-_" (node IDs in the emulator follow the same shape).
func validHost(host string) bool {
	if host == "" {
		return false
	}
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '_' || r == '*':
		default:
			return false
		}
	}
	return true
}

// validUser rejects characters that would break the name-addr and header
// syntax around the URI.
func validUser(user string) bool {
	return !strings.ContainsAny(user, `<>"@;, `+"\t\r\n")
}

// MustParseURI parses s or panics; for tests and static configuration only.
func MustParseURI(s string) *URI {
	u, err := ParseURI(s)
	if err != nil {
		panic(err)
	}
	return u
}

func splitHostPort(s string) (string, uint16, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return s, 0, nil
	}
	p, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return "", 0, fmt.Errorf("bad port %q", s[i+1:])
	}
	return s[:i], uint16(p), nil
}

// Params is the parameter list of a URI, name-addr or Via in canonical wire
// form: ";key=value" pairs (";key" for an empty value) with lower-cased keys
// in sorted order, each key once. A string is immutable and comparable, so a
// list can be shared by every message that carries it; With returns a new one.
type Params string

// next splits the first pair off a non-empty list.
func (p Params) next() (key, value string, rest Params) {
	end := strings.IndexByte(string(p[1:]), ';') + 1
	if end == 0 {
		end = len(p)
	}
	key, value, _ = strings.Cut(string(p[1:end]), "=")
	return key, value, p[end:]
}

// Get returns the value of key ("" if absent or valueless).
func (p Params) Get(key string) string {
	for p != "" {
		var k, v string
		if k, v, p = p.next(); k == key {
			return v
		}
	}
	return ""
}

// With returns the list with key (lower case) set to value.
func (p Params) With(key, value string) Params {
	head, tail := p, Params("")
	for rest := p; rest != ""; {
		k, _, next := rest.next()
		if k >= key {
			head, tail = p[:len(p)-len(rest)], rest
			if k == key {
				tail = next
			}
			break
		}
		rest = next
	}
	if value == "" {
		return head + ";" + Params(key) + tail
	}
	return head + ";" + Params(key) + "=" + Params(value) + tail
}

// canonicalParams reports whether s is already a Params value, which is what
// this package's own marshalling emits: the parser then keeps the slice of
// the message it was handed and allocates nothing.
func canonicalParams(s string) bool {
	prev := ""
	for s != "" {
		if s[0] != ';' {
			return false
		}
		seg := s[1:]
		if i := strings.IndexByte(seg, ';'); i >= 0 {
			seg = seg[:i]
		}
		s = s[1+len(seg):]
		key, value, hasValue := strings.Cut(seg, "=")
		if key <= prev || hasValue && value == "" {
			return false // empty, repeated or unsorted key, or a bare "key="
		}
		for i := 0; i < len(seg); i++ {
			if c := seg[i]; c <= ' ' || c >= 0x7f || i < len(key) && c >= 'A' && c <= 'Z' {
				return false
			}
		}
		prev = key
	}
	return true
}

// parseParams reads a ";"-separated parameter list (with or without the
// leading separator): keys are lower-cased, blanks trimmed, empty keys
// dropped (`;=` and friends carry no information), and the last of a
// repeated key wins.
func parseParams(s string) Params {
	if canonicalParams(s) {
		return Params(s)
	}
	var out Params
	for len(s) > 0 {
		var kv string
		kv, s, _ = strings.Cut(s, ";")
		key, value, _ := strings.Cut(kv, "=")
		if key = strings.ToLower(strings.TrimSpace(key)); key != "" {
			out = out.With(key, strings.TrimSpace(value))
		}
	}
	return out
}

// appendTo appends the wire form of the URI to b.
func (u *URI) appendTo(b []byte) []byte {
	b = append(b, u.Scheme...)
	b = append(b, ':')
	if u.User != "" {
		b = append(b, u.User...)
		b = append(b, '@')
	}
	b = append(b, u.Host...)
	if u.Port != 0 {
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(u.Port), 10)
	}
	return append(b, u.Params...)
}

// String renders the URI.
func (u *URI) String() string {
	return string(u.appendTo(nil))
}

// AddressOfRecord returns the canonical user@host form used as SLP / registrar
// key, e.g. "alice@voicehoc.ch".
func (u *URI) AddressOfRecord() string {
	if u.User == "" {
		return u.Host
	}
	return u.User + "@" + u.Host
}

// PortOrDefault returns the explicit port or 5060.
func (u *URI) PortOrDefault() uint16 {
	if u.Port == 0 {
		return DefaultPort
	}
	return u.Port
}

// NameAddr is a name-addr header value: optional display name, URI in angle
// brackets, and header parameters (e.g. tag).
type NameAddr struct {
	Display string
	URI     *URI
	Params  Params
}

// nameAddrURI is a name-addr in one block with the URI it owns.
type nameAddrURI struct {
	na  NameAddr
	uri URI
}

// ParseNameAddr parses From/To/Contact/Route style values.
func ParseNameAddr(s string) (*NameAddr, error) {
	block := &nameAddrURI{}
	if err := block.parse(s); err != nil {
		return nil, err
	}
	return &block.na, nil
}

func (block *nameAddrURI) parse(s string) error {
	na := &block.na
	s = strings.TrimSpace(s)
	if s == "" {
		return fmt.Errorf("sip: empty name-addr")
	}
	if strings.HasPrefix(s, `"`) {
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			return fmt.Errorf("sip: unterminated display name in %q", s)
		}
		na.Display = s[1 : 1+end]
		s = strings.TrimSpace(s[2+end:])
	}
	var uriStr, paramStr string
	if i := strings.IndexByte(s, '<'); i >= 0 {
		j := strings.IndexByte(s, '>')
		if j < i {
			return fmt.Errorf("sip: malformed name-addr %q", s)
		}
		if na.Display == "" {
			na.Display = strings.TrimSpace(s[:i])
		}
		uriStr = s[i+1 : j]
		paramStr = strings.TrimSpace(s[j+1:])
	} else {
		// addr-spec form: params after ';' belong to the header.
		if i := strings.IndexByte(s, ';'); i >= 0 {
			uriStr, paramStr = s[:i], s[i:]
		} else {
			uriStr = s
		}
	}
	if err := parseURIInto(&block.uri, strings.TrimSpace(uriStr)); err != nil {
		return err
	}
	na.URI = &block.uri
	na.Params = parseParams(paramStr)
	return nil
}

// appendTo appends the name-addr wire form to b: optional quoted display
// name, URI in angle brackets, then header params. Characters that would
// break the quoted display-name syntax (quotes, backslashes, CR/LF —
// header-injection vectors) are stripped.
func (n *NameAddr) appendTo(b []byte) []byte {
	if display := sanitizeDisplay(n.Display); display != "" {
		b = append(b, '"')
		b = append(b, display...)
		b = append(b, `" `...)
	}
	b = append(b, '<')
	b = n.URI.appendTo(b)
	b = append(b, '>')
	return append(b, n.Params...)
}

// String renders the name-addr with the URI in angle brackets.
func (n *NameAddr) String() string {
	return string(n.appendTo(nil))
}

func sanitizeDisplay(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '"', '\\', '\r', '\n':
			return -1
		default:
			return r
		}
	}, s)
}

// Tag returns the tag parameter ("" if absent).
func (n *NameAddr) Tag() string { return n.Params.Get("tag") }

// WithTag returns a copy of the name-addr carrying tag, sharing its URI.
func (n *NameAddr) WithTag(tag string) *NameAddr {
	c := *n
	c.Params = n.Params.With("tag", tag)
	return &c
}
