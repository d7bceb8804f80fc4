// Package wire provides small helpers for hand-rolled binary message
// encodings used by the routing protocols and SLP. All integers are
// big-endian; strings are u16-length-prefixed.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is returned by Reader methods once input is exhausted.
var ErrTruncated = errors.New("wire: truncated input")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping the allocated capacity.
// Bytes slices obtained before Reset are invalidated by subsequent writes.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// String appends a u16-length-prefixed string. Strings longer than 65535
// bytes are truncated — callers validate sizes at higher layers.
func (w *Writer) String(s string) { w.buf = AppendString(w.buf, s) }

// AppendString appends s to b as Writer.String encodes it, for messages that
// are written straight into the buffer they are sent in.
func AppendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Raw appends bytes verbatim (no length prefix).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a message encoded with Writer. After any failure all
// subsequent reads return zero values; check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded tail.
func (r *Reader) Remaining() []byte { return r.b }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// String reads a u16-length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// StringBytes reads a u16-length-prefixed string as a byte slice aliasing
// the input — the zero-copy variant of String for hot receive paths that
// only compare or look the value up (e.g. a byte-keyed map probe) and can
// defer the string copy to the rare case where they keep it. Returns nil
// on truncation, like all Reader methods.
func (r *Reader) StringBytes() []byte {
	return r.take(int(r.U16()))
}
