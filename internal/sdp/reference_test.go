package sdp

// The session-description codec as it stood before Parse and Marshal were
// rewritten to scan and write in place, kept verbatim (renamed with a ref
// prefix, Marshal as a function) as the oracle FuzzParseMatchesReference
// compares the current codec with.

import (
	"fmt"
	"strconv"
	"strings"
)

// refMarshal renders the session description. Fields that would break the
// line-oriented syntax (whitespace, empty values) are normalized.
func refMarshal(s *Session) []byte {
	addr := refSanitizeField(s.Address)
	if addr == "" {
		addr = "0.0.0.0"
	}
	var b strings.Builder
	b.WriteString("v=0\r\n")
	fmt.Fprintf(&b, "o=%s %d %d IN IP4 %s\r\n", refOrDash(refSanitizeField(s.Username)), s.SessionID, s.Version, addr)
	fmt.Fprintf(&b, "s=%s\r\n", refOrDash(refSanitizeLine(s.Name)))
	fmt.Fprintf(&b, "c=IN IP4 %s\r\n", addr)
	b.WriteString("t=0 0\r\n")
	for _, m := range s.Media {
		fmt.Fprintf(&b, "m=%s %d %s %s\r\n",
			refSanitizeField(m.Type), m.Port, refSanitizeField(m.Proto), strings.Join(refCleanFormats(s, m), " "))
	}
	return []byte(b.String())
}

func refCleanFormats(s *Session, m Media) []string {
	out := make([]string, 0, len(m.Formats))
	for _, f := range m.Formats {
		if cf := refSanitizeField(f); cf != "" {
			out = append(out, cf)
		}
	}
	return out
}

// refSanitizeField strips whitespace and CR/LF from a single space-separated
// field. It works byte-wise so non-UTF-8 input passes through unmangled.
func refSanitizeField(s string) string {
	return refStripBytes(s, " \t\r\n")
}

// refSanitizeLine strips only line breaks (free-text fields like s=).
func refSanitizeLine(s string) string {
	return refStripBytes(s, "\r\n")
}

func refStripBytes(s, cutset string) string {
	if !strings.ContainsAny(s, cutset) {
		return s
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(cutset, s[i]) < 0 {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func refOrDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// refParse decodes a session description.
func refParse(data []byte) (*Session, error) {
	s := &Session{}
	sawV := false
	// Accept CRLF, LF and stray CR line endings alike.
	text := strings.ReplaceAll(string(data), "\r\n", "\n")
	text = strings.ReplaceAll(text, "\r", "\n")
	for _, line := range strings.Split(text, "\n") {
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
			fields := strings.Fields(val)
			if len(fields) != 6 {
				return nil, fmt.Errorf("sdp: malformed o= line %q", line)
			}
			s.Username = fields[0]
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad session id: %v", err)
			}
			ver, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad session version: %v", err)
			}
			s.SessionID, s.Version = id, ver
			if s.Address == "" {
				s.Address = fields[5]
			}
		case 's':
			s.Name = val
		case 'c':
			fields := strings.Fields(val)
			if len(fields) != 3 {
				return nil, fmt.Errorf("sdp: malformed c= line %q", line)
			}
			s.Address = fields[2]
		case 'm':
			fields := strings.Fields(val)
			if len(fields) < 4 {
				return nil, fmt.Errorf("sdp: malformed m= line %q", line)
			}
			port, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad media port: %v", err)
			}
			s.Media = append(s.Media, Media{
				Type:    fields[0],
				Port:    uint16(port),
				Proto:   fields[2],
				Formats: fields[3:],
			})
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
