// Package sip implements the subset of the Session Initiation Protocol
// (RFC 3261) the system needs: message parsing and serialization, client and
// server transactions with retransmission over the unreliable MANET
// transport, and helpers for proxying and registration. It is the substrate
// under the paper's per-node SIPHoc proxy and the simulated Internet SIP
// providers, and it is what lets out-of-the-box VoIP applications
// interoperate with the middleware unchanged.
package sip

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"siphoc/internal/netem"
)

// Request methods used by the system.
const (
	MethodRegister = "REGISTER"
	MethodInvite   = "INVITE"
	MethodAck      = "ACK"
	MethodBye      = "BYE"
	MethodCancel   = "CANCEL"
	MethodOptions  = "OPTIONS"
)

// Common status codes.
const (
	StatusTrying             = 100
	StatusRinging            = 180
	StatusOK                 = 200
	StatusBadRequest         = 400
	StatusUnauthorized       = 401
	StatusNotFound           = 404
	StatusRequestTimeout     = 408
	StatusTemporarilyUnavail = 480
	StatusCallDoesNotExist   = 481
	StatusLoopDetected       = 482
	StatusTooManyHops        = 483
	StatusBusyHere           = 486
	StatusRequestTerminated  = 487
	StatusInternalError      = 500
	StatusServiceUnavail     = 503
	StatusDeclined           = 603
)

// ReasonPhrase returns the canonical reason phrase for a status code.
func ReasonPhrase(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusNotFound:
		return "Not Found"
	case StatusRequestTimeout:
		return "Request Timeout"
	case StatusTemporarilyUnavail:
		return "Temporarily Unavailable"
	case StatusCallDoesNotExist:
		return "Call/Transaction Does Not Exist"
	case StatusLoopDetected:
		return "Loop Detected"
	case StatusTooManyHops:
		return "Too Many Hops"
	case StatusBusyHere:
		return "Busy Here"
	case StatusRequestTerminated:
		return "Request Terminated"
	case StatusInternalError:
		return "Server Internal Error"
	case StatusServiceUnavail:
		return "Service Unavailable"
	case StatusDeclined:
		return "Decline"
	default:
		return "Unknown"
	}
}

// Addr is a transport address on the emulated network: node plus UDP port.
type Addr struct {
	Node netem.NodeID
	Port uint16
}

// String renders host:port.
func (a Addr) String() string {
	return fmt.Sprintf("%s:%d", a.Node, a.Port)
}

// ParseAddr parses "host:port" (port defaults to 5060).
func ParseAddr(s string) (Addr, error) {
	host, port, err := splitHostPort(s)
	if err != nil {
		return Addr{}, err
	}
	if port == 0 {
		port = DefaultPort
	}
	return Addr{Node: netem.NodeID(host), Port: port}, nil
}

// Via is one Via header entry recording a hop the request traversed.
type Via struct {
	Transport string // "UDP"
	Host      string
	Port      uint16
	Params    Params // branch, received, ...
}

// BranchPrefix is the RFC 3261 magic cookie for Via branch parameters.
const BranchPrefix = "z9hG4bK"

// Branch returns the branch parameter.
func (v *Via) Branch() string { return v.Params.Get("branch") }

// SentBy returns the transport address encoded in the Via.
func (v *Via) SentBy() Addr {
	port := v.Port
	if port == 0 {
		port = DefaultPort
	}
	return Addr{Node: netem.NodeID(v.Host), Port: port}
}

// appendTo appends "SIP/2.0/UDP host:port;params" to b.
func (v *Via) appendTo(b []byte) []byte {
	b = append(b, "SIP/2.0/"...)
	b = append(b, v.Transport...)
	b = append(b, ' ')
	b = append(b, v.Host...)
	if v.Port != 0 {
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(v.Port), 10)
	}
	return append(b, v.Params...)
}

// String renders "SIP/2.0/UDP host:port;params".
func (v *Via) String() string {
	return string(v.appendTo(nil))
}

func (v *Via) parse(s string) error {
	s = strings.TrimSpace(s)
	const pre = "SIP/2.0/"
	if !strings.HasPrefix(s, pre) {
		return fmt.Errorf("sip: via %q: bad protocol", s)
	}
	s = s[len(pre):]
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return fmt.Errorf("sip: via %q: missing sent-by", s)
	}
	v.Transport = s[:sp]
	if !isToken(v.Transport) {
		return fmt.Errorf("sip: via %q: bad transport", s)
	}
	rest := strings.TrimSpace(s[sp+1:])
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		v.Params = parseParams(rest[i:])
		rest = rest[:i]
	}
	host, port, err := splitHostPort(strings.TrimSpace(rest))
	if err != nil {
		return err
	}
	if !validHost(host) {
		return fmt.Errorf("sip: via %q: bad sent-by host", s)
	}
	v.Host, v.Port = host, port
	return nil
}

// CSeq is the CSeq header: sequence number plus method.
type CSeq struct {
	Seq    uint32
	Method string
}

// appendTo appends "1 INVITE" to b.
func (c CSeq) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(c.Seq), 10)
	b = append(b, ' ')
	return append(b, c.Method...)
}

// String renders "1 INVITE".
func (c CSeq) String() string { return string(c.appendTo(nil)) }

// Header is one header this implementation does not interpret.
type Header struct{ Name, Value string }

// Message is a SIP request or response.
//
// A header value reachable from a Message is read-only; replace, never write
// through. The Via, URI and name-addr values and the slices' elements, the
// Other entries and the Body bytes may be shared with any number of other
// messages (Clone, NewResponse and the forwarding helpers share them all), so
// a change is a new value assigned to the field: To = To.WithTag(t), a Via
// pushed onto a new slice, a Via or Route popped by reslicing.
type Message struct {
	// Request fields (Method != "" marks a request).
	Method     string
	RequestURI *URI

	// Response fields.
	StatusCode int
	Reason     string

	Via         []*Via // topmost first
	From        *NameAddr
	To          *NameAddr
	Contact     []*NameAddr
	Route       []*NameAddr
	RecordRoute []*NameAddr
	CallID      string
	CSeq        CSeq
	MaxForwards int // -1 when absent
	Expires     int // -1 when absent
	ContentType string
	UserAgent   string

	// Other carries headers this implementation does not interpret,
	// preserved across proxying: canonical-cased names in sorted order, the
	// values of one name in arrival order.
	Other []Header

	Body []byte
}

// IsRequest reports whether the message is a request.
func (m *Message) IsRequest() bool { return m.Method != "" }

// IsResponse reports whether the message is a response.
func (m *Message) IsResponse() bool { return m.Method == "" }

// TopVia returns the first Via entry, or nil.
func (m *Message) TopVia() *Via {
	if len(m.Via) == 0 {
		return nil
	}
	return m.Via[0]
}

// Clone returns a copy of the message that shares every header value and the
// body with it. The slices are capped, so an append to either message's
// cannot reach the other's.
func (m *Message) Clone() *Message {
	c := *m
	c.Via = slices.Clip(m.Via)
	c.Contact = slices.Clip(m.Contact)
	c.Route = slices.Clip(m.Route)
	c.RecordRoute = slices.Clip(m.RecordRoute)
	c.Other = slices.Clip(m.Other)
	c.Body = slices.Clip(m.Body)
	return &c
}

// NewRequest builds a request skeleton with sane defaults.
func NewRequest(method string, uri *URI) *Message {
	return &Message{
		Method:      method,
		RequestURI:  uri,
		MaxForwards: 70,
		Expires:     -1,
	}
}

// NewResponse builds a response to req per RFC 3261 §8.2.6: Via, From, To,
// Call-ID and CSeq are the request's, and so is Record-Route, so that the UAC
// learns the dialog's route set (RFC 3261 §12.1.1, §16.7).
func NewResponse(req *Message, code int, reason string) *Message {
	if reason == "" {
		reason = ReasonPhrase(code)
	}
	return &Message{
		StatusCode:  code,
		Reason:      reason,
		Via:         slices.Clip(req.Via),
		From:        req.From,
		To:          req.To,
		RecordRoute: slices.Clip(req.RecordRoute),
		CallID:      req.CallID,
		CSeq:        req.CSeq,
		MaxForwards: -1,
		Expires:     -1,
	}
}

// txKey identifies the transaction a message belongs to (RFC 3261 §17.2.3):
// the top Via's branch and the CSeq method, an ACK matching the INVITE it
// acknowledges. A branch without the RFC 3261 cookie is not unique, so such a
// message is told apart by its Call-ID, CSeq number and sent-by as well.
type txKey struct {
	branch, method string

	callID string
	seq    uint32
	sentBy Addr
}

func (m *Message) txKey() txKey {
	k := txKey{method: m.CSeq.Method}
	if k.method == MethodAck {
		k.method = MethodInvite
	}
	v := m.TopVia()
	if v != nil {
		k.branch = v.Branch()
	}
	if !strings.HasPrefix(k.branch, BranchPrefix) {
		k.callID, k.seq = m.CallID, m.CSeq.Seq
		if v != nil {
			k.sentBy = v.SentBy()
		}
	}
	return k
}
