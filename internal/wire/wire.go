// Package wire provides small helpers for hand-rolled binary message
// encodings used by the routing protocols and SLP. All integers are
// big-endian; strings are u16-length-prefixed. Messages are appended to the
// buffer they are sent in (AppendString, binary.BigEndian.Append*) and read
// with a Reader.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is returned by Reader methods once input is exhausted.
var ErrTruncated = errors.New("wire: truncated input")

// AppendString appends s to b as a u16-length-prefixed string. Strings
// longer than 65535 bytes are truncated — callers validate sizes at higher
// layers. Integers are appended with encoding/binary's BigEndian.Append*.
func AppendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Reader decodes a message encoded with the append helpers. After any
// failure all subsequent reads return zero values; check Err once at the end.
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
