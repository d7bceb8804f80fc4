package sip

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Digest authentication (RFC 2617 as profiled by RFC 3261 §22): providers
// challenge REGISTER/INVITE with a 401 carrying WWW-Authenticate, and the
// client retries with an Authorization header whose response digest proves
// knowledge of the shared password. The qop="auth" flavour with client
// nonces is implemented.

// DigestChallenge is the server side of the handshake.
type DigestChallenge struct {
	Realm string
	Nonce string
	// Opaque is echoed back verbatim when present.
	Opaque string
}

// quoteParam renders a quoted digest parameter value. Quotes and
// backslashes are stripped first: digest values are hex digests, tokens and
// hostnames in practice, and the simple parser on the other side does not
// process escapes.
func quoteParam(s string) string {
	s = strings.Map(func(r rune) rune {
		switch r {
		case '"', '\\', '\r', '\n':
			return -1
		default:
			return r
		}
	}, s)
	return `"` + s + `"`
}

// String renders the WWW-Authenticate header value.
func (c *DigestChallenge) String() string {
	parts := []string{
		"realm=" + quoteParam(c.Realm),
		"nonce=" + quoteParam(c.Nonce),
		`algorithm=MD5`,
		`qop="auth"`,
	}
	if c.Opaque != "" {
		parts = append(parts, "opaque="+quoteParam(c.Opaque))
	}
	return "Digest " + strings.Join(parts, ", ")
}

// ParseDigestChallenge parses a WWW-Authenticate value.
func ParseDigestChallenge(v string) (*DigestChallenge, error) {
	kv, err := parseDigestParams(v)
	if err != nil {
		return nil, err
	}
	c := &DigestChallenge{Realm: kv["realm"], Nonce: kv["nonce"], Opaque: kv["opaque"]}
	if c.Realm == "" || c.Nonce == "" {
		return nil, fmt.Errorf("sip: digest challenge missing realm or nonce")
	}
	return c, nil
}

// DigestCredentials is the client side of the handshake.
type DigestCredentials struct {
	Username string
	Realm    string
	Nonce    string
	URI      string
	CNonce   string
	NC       uint32
	Response string
	Opaque   string
}

// String renders the Authorization header value.
func (a *DigestCredentials) String() string {
	parts := []string{
		"username=" + quoteParam(a.Username),
		"realm=" + quoteParam(a.Realm),
		"nonce=" + quoteParam(a.Nonce),
		"uri=" + quoteParam(a.URI),
		"response=" + quoteParam(a.Response),
		"cnonce=" + quoteParam(a.CNonce),
		fmt.Sprintf("nc=%08x", a.NC),
		"qop=auth",
		"algorithm=MD5",
	}
	if a.Opaque != "" {
		parts = append(parts, "opaque="+quoteParam(a.Opaque))
	}
	return "Digest " + strings.Join(parts, ", ")
}

// ParseDigestCredentials parses an Authorization value.
func ParseDigestCredentials(v string) (*DigestCredentials, error) {
	kv, err := parseDigestParams(v)
	if err != nil {
		return nil, err
	}
	a := &DigestCredentials{
		Username: kv["username"],
		Realm:    kv["realm"],
		Nonce:    kv["nonce"],
		URI:      kv["uri"],
		CNonce:   kv["cnonce"],
		Response: kv["response"],
		Opaque:   kv["opaque"],
	}
	if _, err := fmt.Sscanf(kv["nc"], "%x", &a.NC); err != nil {
		return nil, fmt.Errorf("sip: digest nc %q: %v", kv["nc"], err)
	}
	if a.Username == "" || a.Nonce == "" || a.Response == "" {
		return nil, fmt.Errorf("sip: digest credentials incomplete")
	}
	return a, nil
}

// parseDigestParams splits `Digest k1="v1", k2=v2, ...`.
func parseDigestParams(v string) (map[string]string, error) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(v), "Digest ")
	if !ok {
		return nil, fmt.Errorf("sip: not a Digest header: %q", v)
	}
	kv := make(map[string]string)
	for _, part := range splitQuotedCommas(rest) {
		k, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("sip: malformed digest param %q", part)
		}
		kv[strings.ToLower(strings.TrimSpace(k))] = strings.Trim(strings.TrimSpace(val), `"`)
	}
	return kv, nil
}

// splitQuotedCommas splits on commas outside double quotes.
func splitQuotedCommas(s string) []string {
	var out []string
	inQ, start := false, 0
	for i := range len(s) {
		switch s[i] {
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// DigestResponse computes the qop=auth response digest
// (RFC 2617 §3.2.2.1): MD5(HA1 : nonce : nc : cnonce : "auth" : HA2) with
// HA1 = MD5(user:realm:password) and HA2 = MD5(method:uri).
func DigestResponse(username, realm, password, method, uri, nonce, cnonce string, nc uint32) string {
	ha1 := md5hex(username + ":" + realm + ":" + password)
	ha2 := md5hex(method + ":" + uri)
	return md5hex(fmt.Sprintf("%s:%s:%08x:%s:auth:%s", ha1, nonce, nc, cnonce, ha2))
}

func md5hex(s string) string {
	sum := md5.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Answer builds the Authorization credentials answering a challenge.
func (c *DigestChallenge) Answer(username, password, method, uri, cnonce string, nc uint32) *DigestCredentials {
	return &DigestCredentials{
		Username: username,
		Realm:    c.Realm,
		Nonce:    c.Nonce,
		URI:      uri,
		CNonce:   cnonce,
		NC:       nc,
		Opaque:   c.Opaque,
		Response: DigestResponse(username, c.Realm, password, method, uri, c.Nonce, cnonce, nc),
	}
}

// Verify checks the credentials against the expected password for the given
// request method.
func (a *DigestCredentials) Verify(password, method string) bool {
	want := DigestResponse(a.Username, a.Realm, password, method, a.URI, a.Nonce, a.CNonce, a.NC)
	return want == a.Response
}

// Challenge and Authorization accessors on Message (stored among the
// uninterpreted headers so proxying preserves them).

// setOther replaces every header called name with one carrying value, in a
// list of the message's own: Other may be shared.
func (m *Message) setOther(name, value string) {
	kept := make([]Header, 0, len(m.Other)+1)
	for _, h := range m.Other {
		if h.Name != name {
			kept = append(kept, h)
		}
	}
	m.Other = insertHeader(kept, Header{name, value})
}

// other returns the first header called name.
func (m *Message) other(name string) (string, bool) {
	i := slices.IndexFunc(m.Other, func(h Header) bool { return h.Name == name })
	if i < 0 {
		return "", false
	}
	return m.Other[i].Value, true
}

// SetChallenge attaches a WWW-Authenticate header to a 401 response.
func (m *Message) SetChallenge(c *DigestChallenge) {
	m.setOther("WWW-Authenticate", c.String())
}

// Challenge extracts the WWW-Authenticate challenge, if any.
func (m *Message) Challenge() (*DigestChallenge, bool) {
	v, ok := m.other("WWW-Authenticate")
	if !ok {
		return nil, false
	}
	c, err := ParseDigestChallenge(v)
	return c, err == nil
}

// SetAuthorization attaches the Authorization header to a request.
func (m *Message) SetAuthorization(a *DigestCredentials) {
	m.setOther("Authorization", a.String())
}

// Authorization extracts the Authorization credentials, if any.
func (m *Message) Authorization() (*DigestCredentials, bool) {
	v, ok := m.other("Authorization")
	if !ok {
		return nil, false
	}
	a, err := ParseDigestCredentials(v)
	return a, err == nil
}

// NonceSource issues and validates server nonces. It is deliberately simple
// (random-free, counter-based) so tests are deterministic; nonces expire
// after maxUses grants to bound replay.
type NonceSource struct {
	prefix  string
	counter uint64
	// issued tracks outstanding nonces and how often they were used.
	issued map[string]int
	// MaxUses bounds how many requests may reuse one nonce (default 4).
	MaxUses int
}

// NewNonceSource creates a source whose nonces carry the given prefix
// (typically the realm).
func NewNonceSource(prefix string) *NonceSource {
	return &NonceSource{prefix: prefix, issued: make(map[string]int), MaxUses: 4}
}

// Next issues a fresh nonce.
func (n *NonceSource) Next() string {
	n.counter++
	nonce := fmt.Sprintf("%s-%d", n.prefix, n.counter)
	n.issued[nonce] = 0
	return nonce
}

// Use validates and consumes one use of a nonce.
func (n *NonceSource) Use(nonce string) bool {
	uses, ok := n.issued[nonce]
	if !ok || uses >= n.MaxUses {
		delete(n.issued, nonce)
		return false
	}
	n.issued[nonce] = uses + 1
	if len(n.issued) > 1024 {
		// Drop the oldest half (lowest counters) to bound memory.
		keys := make([]string, 0, len(n.issued))
		for k := range n.issued {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys[:len(keys)/2] {
			delete(n.issued, k)
		}
	}
	return true
}
