package sip

import (
	"bytes"
	"strconv"
)

// AppendTo appends the wire form of the message — CRLF line endings and an
// accurate Content-Length — to b and returns the extended slice; callers that
// reuse buffers serialize with zero allocations. AppendTo(nil) renders on the
// stack and returns a copy of its own, one allocation.
func (m *Message) AppendTo(b []byte) []byte {
	if b == nil {
		var scratch [1024]byte // a longer message moves to the heap
		return bytes.Clone(m.appendTo(scratch[:0]))
	}
	return m.appendTo(b)
}

func (m *Message) appendTo(b []byte) []byte {
	if m.IsRequest() {
		b = append(b, m.Method...)
		b = append(b, ' ')
		b = m.RequestURI.appendTo(b)
		b = append(b, " SIP/2.0\r\n"...)
	} else {
		b = append(b, "SIP/2.0 "...)
		b = strconv.AppendInt(b, int64(m.StatusCode), 10)
		b = append(b, ' ')
		b = append(b, m.Reason...)
		b = append(b, "\r\n"...)
	}
	for _, v := range m.Via {
		b = append(b, "Via: "...)
		b = v.appendTo(b)
		b = append(b, "\r\n"...)
	}
	b = appendNameAddrHeader(b, "Route", m.Route)
	b = appendNameAddrHeader(b, "Record-Route", m.RecordRoute)
	if m.From != nil {
		b = append(b, "From: "...)
		b = m.From.appendTo(b)
		b = append(b, "\r\n"...)
	}
	if m.To != nil {
		b = append(b, "To: "...)
		b = m.To.appendTo(b)
		b = append(b, "\r\n"...)
	}
	if m.CallID != "" {
		b = append(b, "Call-ID: "...)
		b = append(b, m.CallID...)
		b = append(b, "\r\n"...)
	}
	if m.CSeq.Method != "" {
		b = append(b, "CSeq: "...)
		b = m.CSeq.appendTo(b)
		b = append(b, "\r\n"...)
	}
	for _, c := range m.Contact {
		b = append(b, "Contact: "...)
		if c.Display == "*" {
			b = append(b, '*')
		} else {
			b = c.appendTo(b)
		}
		b = append(b, "\r\n"...)
	}
	if m.MaxForwards >= 0 {
		b = append(b, "Max-Forwards: "...)
		b = strconv.AppendInt(b, int64(m.MaxForwards), 10)
		b = append(b, "\r\n"...)
	}
	if m.Expires >= 0 {
		b = append(b, "Expires: "...)
		b = strconv.AppendInt(b, int64(m.Expires), 10)
		b = append(b, "\r\n"...)
	}
	if m.UserAgent != "" {
		b = append(b, "User-Agent: "...)
		b = append(b, m.UserAgent...)
		b = append(b, "\r\n"...)
	}
	if m.ContentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, m.ContentType...)
		b = append(b, "\r\n"...)
	}
	for _, h := range m.Other {
		b = append(b, h.Name...)
		b = append(b, ": "...)
		b = append(b, h.Value...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(m.Body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, m.Body...)
	return b
}

func appendNameAddrHeader(b []byte, name string, nas []*NameAddr) []byte {
	if len(nas) == 0 {
		return b
	}
	b = append(b, name...)
	b = append(b, ": "...)
	for i, na := range nas {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = na.appendTo(b)
	}
	return append(b, "\r\n"...)
}

// String renders the start line plus key headers, for logs and experiment
// output.
func (m *Message) String() string {
	if m.IsRequest() {
		return m.Method + " " + m.RequestURI.String()
	}
	return strconv.Itoa(m.StatusCode) + " " + m.Reason
}
