package clock

// ExpiryQueue holds the keys of a table whose entries all live equally long —
// a flooded message's duplicate-set entry, a relayed query — in the order they
// were put in, which is then the order they expire in: the head is the next
// key due, and a push or a pop is O(1) with no heap to sift. Deadlines are
// Unix nanoseconds. The keys sit in a ring that doubles when full and is
// reused as the queue drains, so steady state allocates nothing.
type ExpiryQueue[K comparable] struct {
	ring []expiring[K]
	head int // index of the oldest key
	n    int // keys queued
}

type expiring[K comparable] struct {
	key K
	at  int64
}

// smallRing is the ring a queue starts with and the largest Trim keeps, so a
// table that holds a key now and then is not re-made each time.
const smallRing = 8

// Push queues key, due at at.
func (q *ExpiryQueue[K]) Push(key K, at int64) {
	if q.n == len(q.ring) {
		grown := make([]expiring[K], max(smallRing, 2*q.n))
		copy(grown, q.ring[q.head:])
		copy(grown[len(q.ring)-q.head:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = expiring[K]{key, at}
	q.n++
}

// Len returns the number of keys queued.
func (q *ExpiryQueue[K]) Len() int { return q.n }

// Next returns the oldest key and its deadline; the queue must not be empty.
func (q *ExpiryQueue[K]) Next() (K, int64) {
	e := q.ring[q.head]
	return e.key, e.at
}

// Pop removes the oldest key and returns it; the queue must not be empty.
func (q *ExpiryQueue[K]) Pop() K {
	e := q.ring[q.head]
	q.ring[q.head] = expiring[K]{} // the ring must not pin a key
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return e.key
}

// Trim drops the ring of an empty queue that once held more than a few keys,
// and reports whether it did: its owner then drops the table too, since Go
// maps never shrink and this is the only way a burst's memory goes back.
func (q *ExpiryQueue[K]) Trim() bool {
	if q.n > 0 || len(q.ring) <= smallRing {
		return false
	}
	*q = ExpiryQueue[K]{}
	return true
}
