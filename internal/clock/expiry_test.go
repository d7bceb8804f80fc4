package clock

import (
	"reflect"
	"testing"
)

// TestExpiryQueueOrderAndTrim: keys come out in the order they went in across
// the ring's wrap and growth, a queue that stays small reuses its ring, and
// Trim hands back only the ring a burst grew.
func TestExpiryQueueOrderAndTrim(t *testing.T) {
	var q ExpiryQueue[int]
	next, want := 0, 0
	for round := range 50 { // pushes outpace pops: the ring wraps, then grows
		for range 3 {
			q.Push(next, int64(next))
			next++
		}
		for range 2 - round%2 {
			if k, at := q.Next(); k != want || at != int64(want) {
				t.Fatalf("Next() = %d, %d; want %d", k, at, want)
			}
			if k := q.Pop(); k != want {
				t.Fatalf("Pop() = %d, want %d", k, want)
			}
			want++
		}
	}
	if q.Len() != next-want || q.Trim() {
		t.Fatalf("Len() = %d, want %d; a queue holding keys must not trim", q.Len(), next-want)
	}
	for q.Len() > 0 {
		if k := q.Pop(); k != want {
			t.Fatalf("Pop() = %d, want %d", k, want)
		}
		want++
	}
	if !q.Trim() || !reflect.DeepEqual(q, ExpiryQueue[int]{}) {
		t.Fatalf("a drained queue that held %d keys kept its ring: %+v", next, q)
	}

	q.Push(1, 1)
	q.Pop()
	if q.Trim() {
		t.Fatal("a queue that never held more than a few keys gave its ring back")
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(2, 2)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("push and pop on a small queue allocate %.1f times, want 0", allocs)
	}
}
