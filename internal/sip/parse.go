package sip

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// canonicalKnown maps a header name (long or RFC 3261 compact form) to its
// canonical spelling without allocating. The bool reports whether the name
// was recognised; unknown names fall back to the allocating title-casing in
// canonicalHeader.
func canonicalKnown(name string) (string, bool) {
	switch len(name) {
	case 1:
		switch name[0] | 0x20 {
		case 'v':
			return "Via", true
		case 'f':
			return "From", true
		case 't':
			return "To", true
		case 'i':
			return "Call-ID", true
		case 'm':
			return "Contact", true
		case 'c':
			return "Content-Type", true
		case 'l':
			return "Content-Length", true
		}
	case 2:
		if strings.EqualFold(name, "To") {
			return "To", true
		}
	case 3:
		if strings.EqualFold(name, "Via") {
			return "Via", true
		}
	case 4:
		if strings.EqualFold(name, "From") {
			return "From", true
		}
		if strings.EqualFold(name, "CSeq") {
			return "CSeq", true
		}
	case 5:
		if strings.EqualFold(name, "Route") {
			return "Route", true
		}
	case 7:
		if strings.EqualFold(name, "Call-ID") {
			return "Call-ID", true
		}
		if strings.EqualFold(name, "Contact") {
			return "Contact", true
		}
		if strings.EqualFold(name, "Expires") {
			return "Expires", true
		}
	case 10:
		if strings.EqualFold(name, "User-Agent") {
			return "User-Agent", true
		}
	case 12:
		if strings.EqualFold(name, "Max-Forwards") {
			return "Max-Forwards", true
		}
		if strings.EqualFold(name, "Content-Type") {
			return "Content-Type", true
		}
		if strings.EqualFold(name, "Record-Route") {
			return "Record-Route", true
		}
	case 13:
		if strings.EqualFold(name, "Authorization") {
			return "Authorization", true
		}
	case 14:
		if strings.EqualFold(name, "Content-Length") {
			return "Content-Length", true
		}
	case 16:
		if strings.EqualFold(name, "WWW-Authenticate") {
			return "WWW-Authenticate", true
		}
	case 18:
		if strings.EqualFold(name, "Proxy-Authenticate") {
			return "Proxy-Authenticate", true
		}
	case 19:
		if strings.EqualFold(name, "Proxy-Authorization") {
			return "Proxy-Authorization", true
		}
	}
	return "", false
}

// canonicalHeader maps compact forms and normalizes case, allocating only
// for names outside the known set.
func canonicalHeader(name string) string {
	name = strings.TrimSpace(name)
	if c, ok := canonicalKnown(name); ok {
		return c
	}
	// Title-case each dash-separated token.
	parts := strings.Split(strings.ToLower(name), "-")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "-")
}

// nextLine splits s at the first newline, trimming the line's trailing CR.
// more is false once s held no newline (last line).
func nextLine(s string) (line, rest string, more bool) {
	i := strings.IndexByte(s, '\n')
	if i < 0 {
		return strings.TrimSuffix(s, "\r"), "", false
	}
	line = s[:i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, s[i+1:], true
}

// parsed is the one block a parsed message lives in: the Message, its
// Request-URI, its name-addrs with their URIs and its Via entries. The arrays
// hold what a call through two proxies and a provider carries; a message with
// more spills into allocations of its own.
type parsed struct {
	msg      Message
	ruri     URI
	from, to nameAddrURI
	nas      [4]nameAddrURI // Contact, Route and Record-Route entries as they arrive
	vias     [4]Via
	nNA      int

	viaList                     [4]*Via
	contact, route, recordRoute [2]*NameAddr
}

// Parse decodes a SIP message from its textual wire form. The input is
// copied into one backing string; all string fields of the result are
// slices of it.
func Parse(data []byte) (*Message, error) {
	text := string(data)
	headEnd := strings.Index(text, "\r\n\r\n")
	sep := 4
	if headEnd < 0 {
		headEnd = strings.Index(text, "\n\n")
		sep = 2
	}
	var head, body string
	if headEnd >= 0 {
		head, body = text[:headEnd], text[headEnd+sep:]
	} else {
		head = text
	}
	p := &parsed{msg: Message{MaxForwards: -1, Expires: -1}}
	m := &p.msg
	start, rest, more := nextLine(head)
	if err := p.parseStartLine(start); err != nil {
		return nil, err
	}
	contentLength := -1
	for more {
		var line string
		line, rest, more = nextLine(rest)
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("sip: malformed header line %q", line)
		}
		rawName := strings.TrimSpace(line[:colon])
		if !isToken(rawName) {
			return nil, fmt.Errorf("sip: malformed header name %q", line[:colon])
		}
		name, known := canonicalKnown(rawName)
		if !known {
			name = canonicalHeader(rawName)
		}
		value := strings.TrimSpace(line[colon+1:])
		if err := p.setHeader(name, value, &contentLength); err != nil {
			return nil, err
		}
	}
	if err := validate(m); err != nil {
		return nil, err
	}
	if contentLength >= 0 {
		if contentLength > len(body) {
			return nil, fmt.Errorf("sip: Content-Length %d exceeds body %d", contentLength, len(body))
		}
		body = body[:contentLength]
	}
	if body != "" {
		m.Body = []byte(body)
	}
	return m, nil
}

func (p *parsed) parseStartLine(line string) error {
	m := &p.msg
	if strings.HasPrefix(line, "SIP/2.0 ") {
		rest := line[len("SIP/2.0 "):]
		sp := strings.IndexByte(rest, ' ')
		codeStr, reason := rest, ""
		if sp >= 0 {
			codeStr, reason = rest[:sp], rest[sp+1:]
		}
		code, err := strconv.Atoi(codeStr)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sip: bad status line %q", line)
		}
		m.StatusCode = code
		m.Reason = reason
		return nil
	}
	sp1 := strings.IndexByte(line, ' ')
	if sp1 < 0 {
		return fmt.Errorf("sip: bad request line %q", line)
	}
	sp2 := strings.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 || line[sp1+1+sp2+1:] != "SIP/2.0" {
		return fmt.Errorf("sip: bad request line %q", line)
	}
	method := strings.ToUpper(line[:sp1])
	if !isToken(method) {
		return fmt.Errorf("sip: bad method %q", line[:sp1])
	}
	if err := parseURIInto(&p.ruri, line[sp1+1:sp1+1+sp2]); err != nil {
		return err
	}
	m.Method = method
	m.RequestURI = &p.ruri
	return nil
}

// isToken reports whether s is a non-empty RFC 3261 token (method names,
// header tokens).
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z', r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case strings.ContainsRune("-.!%*_+`'~", r):
		default:
			return false
		}
	}
	return true
}

// nameAddr parses one name-addr into the block's next free slot.
func (p *parsed) nameAddr(header, value string) (*NameAddr, error) {
	var slot *nameAddrURI
	if p.nNA < len(p.nas) {
		slot = &p.nas[p.nNA]
		p.nNA++
	} else {
		slot = new(nameAddrURI)
	}
	if err := slot.parse(value); err != nil {
		return nil, fmt.Errorf("sip: %s: %v", header, err)
	}
	return &slot.na, nil
}

// nameAddrs appends the name-addrs of one header line to list, which starts
// out in the block's array for it.
func (p *parsed) nameAddrs(list, array []*NameAddr, header, value string) ([]*NameAddr, error) {
	if list == nil {
		list = array[:0]
	}
	err := forEachTopLevel(value, func(part string) error {
		na, err := p.nameAddr(header, part)
		if err == nil {
			list = append(list, na)
		}
		return err
	})
	return list, err
}

func (p *parsed) setHeader(name, value string, contentLength *int) (err error) {
	m := &p.msg
	switch name {
	case "Via":
		return forEachTopLevel(value, func(part string) error {
			var v *Via
			if n := len(m.Via); n < len(p.vias) {
				v = &p.vias[n]
			} else {
				v = new(Via)
			}
			if m.Via == nil {
				m.Via = p.viaList[:0]
			}
			m.Via = append(m.Via, v)
			return v.parse(part)
		})
	case "From":
		m.From = &p.from.na
		if err := p.from.parse(value); err != nil {
			return fmt.Errorf("sip: From: %v", err)
		}
	case "To":
		m.To = &p.to.na
		if err := p.to.parse(value); err != nil {
			return fmt.Errorf("sip: To: %v", err)
		}
	case "Contact":
		if value == "*" {
			value = `"*" <sip:*>` // the wildcard's stand-in; AppendTo knows it by the display name
		}
		m.Contact, err = p.nameAddrs(m.Contact, p.contact[:], name, value)
	case "Route":
		m.Route, err = p.nameAddrs(m.Route, p.route[:], name, value)
	case "Record-Route":
		m.RecordRoute, err = p.nameAddrs(m.RecordRoute, p.recordRoute[:], name, value)
	case "Call-ID":
		m.CallID = value
	case "CSeq":
		sp := strings.IndexByte(value, ' ')
		if sp < 0 {
			return fmt.Errorf("sip: bad CSeq %q", value)
		}
		seq, err := strconv.ParseUint(strings.TrimSpace(value[:sp]), 10, 32)
		if err != nil {
			return fmt.Errorf("sip: bad CSeq %q", value)
		}
		m.CSeq = CSeq{Seq: uint32(seq), Method: strings.ToUpper(strings.TrimSpace(value[sp+1:]))}
	case "Max-Forwards":
		m.MaxForwards, err = parseCount(name, value)
	case "Expires":
		m.Expires, err = parseCount(name, value)
	case "Content-Type":
		m.ContentType = value
	case "Content-Length":
		*contentLength, err = parseCount(name, value)
	case "User-Agent":
		m.UserAgent = value
	default:
		m.Other = insertHeader(m.Other, Header{name, value})
	}
	return err
}

// parseCount reads the value of a header that is a non-negative number.
func parseCount(name, value string) (int, error) {
	n, err := strconv.Atoi(value)
	if err != nil || n < 0 {
		return -1, fmt.Errorf("sip: bad %s %q", name, value)
	}
	return n, nil
}

// insertHeader puts h behind the headers that sort before or with it.
func insertHeader(hs []Header, h Header) []Header {
	i := len(hs)
	for i > 0 && hs[i-1].Name > h.Name {
		i--
	}
	return slices.Insert(hs, i, h)
}

// forEachTopLevel visits the comma-separated elements of a header value,
// respecting quoted strings and angle brackets (so "Bob" <sip:b@x>, <sip:c@y>
// splits cleanly) without allocating an intermediate slice.
func forEachTopLevel(s string, fn func(string) error) error {
	depth, inQuote, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '<':
			if !inQuote {
				depth++
			}
		case '>':
			if !inQuote && depth > 0 {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				if part := strings.TrimSpace(s[start:i]); part != "" {
					if err := fn(part); err != nil {
						return err
					}
				}
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		return fn(tail)
	}
	return nil
}

func validate(m *Message) error {
	if m.From == nil || m.To == nil {
		return fmt.Errorf("sip: missing From or To")
	}
	if m.CallID == "" {
		return fmt.Errorf("sip: missing Call-ID")
	}
	if m.CSeq.Method == "" {
		return fmt.Errorf("sip: missing CSeq")
	}
	if m.IsRequest() && m.CSeq.Method != m.Method {
		return fmt.Errorf("sip: CSeq method %q does not match request method %q", m.CSeq.Method, m.Method)
	}
	return nil
}
