package wire

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	b := []byte{7}
	b = binary.BigEndian.AppendUint16(b, 65535)
	b = binary.BigEndian.AppendUint32(b, 1<<30)
	b = binary.BigEndian.AppendUint64(b, 1<<50)
	b = AppendString(b, "alice@voicehoc.ch")
	b = AppendString(b, "")
	b = append(b, 1, 2, 3)

	r := NewReader(b)
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 65535 {
		t.Fatalf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<50 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.String(); got != "alice@voicehoc.ch" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := r.Remaining(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Remaining = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	b := AppendString(nil, "hello")
	r := NewReader(b[:3])
	if got := r.String(); got != "" {
		t.Fatalf("truncated String = %q", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	// Once failed, everything returns zero values.
	if r.U32() != 0 || r.U8() != 0 {
		t.Fatal("post-error reads returned nonzero")
	}
}

func TestEmptyReader(t *testing.T) {
	r := NewReader(nil)
	if r.U16() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("empty reader: %v", r.Err())
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(a, b string, x uint32) bool {
		if len(a) > 0xffff || len(b) > 0xffff {
			return true
		}
		buf := AppendString(make([]byte, 0, len(a)+len(b)+8), a)
		buf = binary.BigEndian.AppendUint32(buf, x)
		buf = AppendString(buf, b)
		r := NewReader(buf)
		return r.String() == a && r.U32() == x && r.String() == b && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
