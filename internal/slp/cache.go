package slp

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

type cacheKey struct {
	stype string
	key   string
}

// Gossip constants (DESIGN.md §5).
const (
	// sendsPerChange is how many broadcasts carry an entry after it was
	// installed or raised to a newer Seq: one to tell the neighbours, one more
	// against loss. Anything both miss is left to the digest.
	sendsPerChange = 2
	// resyncEvery is the least time between two passes over the whole table
	// made because a neighbour's digest differs.
	resyncEvery = time.Second
)

// entry is one registration in the table.
type entry struct {
	svc   Service
	term  uint64    // this entry's share of the digest sum
	due   time.Time // deadline of the entry's item in cache.expiry
	sends uint8     // broadcasts still owed; non-zero exactly while queued in cache.pend
}

// cache is the node's service table — its own registrations and those learned
// from the network — with the gossip state that decides what the next routing
// message carries. One (type, key) has one entry; between two claims the
// newer Seq of the same origin wins, and between origins the greater origin
// ID, so every node that has seen both keeps the same one and the gossip
// settles. An equal Seq changes nothing, not even the expiry.
type cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry
	expiry  deadlineHeap
	sum     uint64 // wrapping sum of the entries' digest terms

	// pend queues the entries that still owe broadcasts, oldest debt first.
	pend []*entry
	// heard is set once any neighbour's digest has arrived; until then every
	// broadcast re-arms the whole table, since nothing says anyone has it.
	heard bool
	// mismatch records that differs, a neighbour, last sent a digest unlike
	// ours while we owed nothing; the next broadcast at least resyncEvery
	// after lastPass answers it with a pass over the whole table.
	mismatch bool
	differs  netem.NodeID
	lastPass time.Time
	scratch  []*entry

	// waiters are the lookups that end when a matching entry appears;
	// settling, those that also end, as misses, when the table settles.
	waiters  map[cacheKey][]*lookup
	settling []*lookup
	// nbrs is the digest each neighbour last sent, and when: the table has
	// settled when it agrees with every one heard within a refresh interval
	// (settledLocked).
	nbrs map[netem.NodeID]nbrDigest
	// self is this node's ID, the origin of its own registrations.
	self netem.NodeID
	// misses remembers exact-key network queries that timed out, so the
	// next lookup of the key need not wait the same timeout out again.
	// Every miss lives one refresh interval, so missQ holds the keys in
	// expiry order; it is pruned on insert and bounded, like seenQ.
	misses map[cacheKey]miss
	missQ  clock.ExpiryQueue[cacheKey]

	watches []func(stype string) // Agent.OnInstall's; append-only, so commit reads it under mu
}

// miss is a remembered negative answer: a network query that waited this
// long and heard nothing, trusted until the deadline.
type miss struct {
	waited time.Duration
	until  time.Time
}

// nbrDigest is the digest a neighbour last sent, and when it came.
type nbrDigest struct {
	d  Digest
	at time.Time
}

// missHardCap bounds the miss set; beyond it the oldest entries are dropped
// (a forgotten miss only costs one more blocking query).
const missHardCap = 1024

func newCache() *cache {
	return &cache{
		entries: make(map[cacheKey]*entry),
		waiters: make(map[cacheKey][]*lookup),
		misses:  make(map[cacheKey]miss),
		nbrs:    make(map[netem.NodeID]nbrDigest),
	}
}

// supersedes reports whether a claim from an origin comparing originCmp to
// the holder's (as strings.Compare does) with sequence number seq replaces
// an entry at sequence number held.
func supersedes(originCmp int, seq, held uint32) bool {
	if originCmp == 0 {
		return seq > held
	}
	return originCmp > 0
}

// compareOrigin is strings.Compare of an origin on the wire with one held,
// through the comparison operators, which do not copy the bytes to compare.
func compareOrigin(wire []byte, held netem.NodeID) int {
	switch {
	case string(wire) == string(held):
		return 0
	case string(wire) > string(held):
		return 1
	}
	return -1
}

// digestTerm hashes the part of an entry the digest covers: FNV-1a over the
// three strings and their lengths, then a finalising mix so that terms of
// similar keys still sum apart.
func digestTerm(stype, key string, origin netem.NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [...]string{stype, key, string(origin)} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ uint64(len(s))) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// upsert installs a registration held as a Service (a local one, or a
// test's); it reports whether it was accepted. See upsertAdvert.
func (c *cache) upsert(svc Service) bool {
	k := cacheKey{svc.Type, svc.Key}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &entry{}
	} else if !supersedes(strings.Compare(string(svc.Origin), string(e.svc.Origin)), svc.Seq, e.svc.Seq) {
		c.mu.Unlock()
		return false
	}
	e.svc = svc
	c.commit(k, e)
	return true
}

// upsertAdvert installs an advert straight off the wire; it reports whether
// it was accepted, i.e. new to the table or superseding what the table held.
// One that is not costs a map probe and two comparisons; strings are copied
// only for what is kept.
func (c *cache) upsertAdvert(it *item, now time.Time) bool {
	c.mu.Lock()
	e := c.entries[cacheKey{string(it.stype), string(it.key)}]
	switch {
	case e == nil:
		e = &entry{svc: Service{Type: string(it.stype), Key: string(it.key), URL: string(it.url), Attrs: it.attrMap(), Origin: netem.NodeID(it.origin)}}
	case !supersedes(compareOrigin(it.origin, e.svc.Origin), it.seq, e.svc.Seq):
		c.mu.Unlock()
		return false
	default:
		if string(it.origin) != string(e.svc.Origin) {
			e.svc.Origin = netem.NodeID(it.origin)
		}
		if string(it.url) != e.svc.URL {
			e.svc.URL = string(it.url)
		}
		if it.nattrs > 0 || len(e.svc.Attrs) > 0 {
			e.svc.Attrs = it.attrMap() // replaced, never written: readers hold the old map
		}
	}
	e.svc.Seq = it.seq
	e.svc.Expires = now.Add(time.Duration(it.ttl) * ttlUnit)
	c.commit(cacheKey{e.svc.Type, e.svc.Key}, e)
	return true
}

// commit finishes an accepted install of e, whose svc is already in place,
// and releases c.mu: index, digest, expiry, gossip debt, and the lookups,
// remembered miss and watches that were waiting for it. Wildcard waiters
// (key "") of the same type are signalled too.
func (c *cache) commit(k cacheKey, e *entry) {
	c.entries[k] = e
	term := digestTerm(k.stype, k.key, e.svc.Origin)
	c.sum += term - e.term
	e.term = term
	// One expiry item per entry, pushed again when it comes due (expire);
	// only a lifetime cut short needs an earlier one.
	if e.due.IsZero() || e.svc.Expires.Before(e.due) {
		e.due = e.svc.Expires
		c.expiry.push(deadlineItem{e: e, at: e.due})
	}
	c.arm(e, sendsPerChange)
	// An advert is fresher evidence than any remembered miss.
	delete(c.misses, k)
	waiters := c.waiters[k]
	delete(c.waiters, k)
	if k.key != "" {
		wk := cacheKey{k.stype, ""}
		waiters = append(waiters, c.waiters[wk]...)
		delete(c.waiters, wk)
	}
	svc := e.svc
	// The waiters are claimed under c.mu, so that commit holds none past it
	// that another end may already have put back for reuse (see lookup.end).
	claimed := waiters[:0]
	for _, l := range waiters {
		if l.claim() {
			claimed = append(claimed, l)
		}
	}
	watches := c.watches
	c.mu.Unlock()
	for _, l := range claimed {
		l.end(&svc, nil, nil)
	}
	for _, fn := range watches {
		fn(k.stype)
	}
}

// arm makes e owe at least n broadcasts. Caller holds c.mu.
func (c *cache) arm(e *entry, n uint8) {
	if e.sends == 0 {
		c.pend = append(c.pend, e)
	}
	e.sends = max(e.sends, n)
}

// drop removes e, indexed under k. Caller holds c.mu.
func (c *cache) drop(k cacheKey, e *entry) {
	delete(c.entries, k)
	c.sum -= e.term
	if e.sends > 0 {
		e.sends = 0
		c.pend = slices.DeleteFunc(c.pend, func(x *entry) bool { return x == e })
	}
}

// expire drops every entry whose lifetime has passed, in deadline order.
// Every reader calls it first, so the table, and with it the digest, only
// ever holds live entries. Caller holds c.mu.
func (c *cache) expire(now time.Time) {
	for len(c.expiry) > 0 && now.After(c.expiry[0].at) {
		top := c.expiry.pop()
		e := top.e
		k := cacheKey{e.svc.Type, e.svc.Key}
		switch {
		case c.entries[k] != e || !top.at.Equal(e.due):
			// Dropped since, or passed over by an earlier item.
		case now.After(e.svc.Expires):
			c.drop(k, e)
		default: // refreshed since it was queued
			e.due = e.svc.Expires
			c.expiry.push(deadlineItem{e: e, at: e.due})
		}
	}
}

// deadlineItem orders the advert cache's entries by expiry, so that it is
// pruned in deadline order instead of by a sweep of the whole table.
type deadlineItem struct {
	e  *entry
	at time.Time
}

// deadlineHeap is a min-heap by deadline with container/heap's algorithm
// written out on the typed slice: through heap.Interface every item pushed or
// popped is boxed into an `any`, one allocation apiece on the query path. The
// cache needs a heap and not a clock.ExpiryQueue, as the miss set and the
// query tables use, because an advert's lifetime comes off the wire: each
// origin sets its own TTL, so insertion order is not expiry order.
type deadlineHeap []deadlineItem

func (h *deadlineHeap) push(it deadlineItem) {
	s := append(*h, it)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].at.Before(s[parent].at) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest item; the heap must not be empty.
func (h *deadlineHeap) pop() deadlineItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = deadlineItem{} // the spare capacity must not pin an entry
	s = s[:n]
	for i := 0; ; {
		min := 2*i + 1
		if min >= n {
			break
		}
		if r := min + 1; r < n && s[r].at.Before(s[min].at) {
			min = r
		}
		if !s[min].at.Before(s[i].at) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

func (c *cache) digestLocked() Digest {
	return Digest{Count: uint16(len(c.entries)), Hash: c.sum}
}

// digest returns the digest of the live table.
func (c *cache) digest(now time.Time) Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	return c.digestLocked()
}

// heardDigest takes in the digest a neighbour's routing message carried,
// after that message's adverts were installed. A digest unlike ours counts
// against the neighbour only while we owe no broadcasts: until then it may
// just not have heard our news yet. The digest is recorded as the
// neighbour's; if it settles the table (see settledLocked), the lookups
// waiting for that end as misses. A neighbour is forgotten after life of
// silence.
func (c *cache) heardDigest(from netem.NodeID, d Digest, now time.Time, life time.Duration) {
	c.mu.Lock()
	c.expire(now)
	c.heard = true
	switch {
	case d == c.digestLocked():
		if c.differs == from {
			c.mismatch = false
		}
	case len(c.pend) == 0:
		c.mismatch, c.differs = true, from
	}
	if _, known := c.nbrs[from]; !known {
		// Only a newcomer grows the map, so the quiet are dropped here.
		for id, n := range c.nbrs {
			if now.Sub(n.at) > life {
				delete(c.nbrs, id)
			}
		}
	}
	c.nbrs[from] = nbrDigest{d, now}
	if len(c.settling) == 0 || !c.settledLocked(now, life) {
		c.mu.Unlock()
		return
	}
	// As in commit, the lookups are claimed under c.mu.
	ending := c.settling[:0]
	for _, l := range c.settling {
		if l.claim() {
			ending = append(ending, l)
		}
	}
	c.settling = nil
	c.mu.Unlock()
	for _, l := range ending {
		l.endSettled()
	}
}

// settledLocked reports whether the table has settled: at least one
// neighbour was heard within life, and the last digest of every neighbour
// heard within life agrees with ours. A quiet neighbour whose digest differs
// therefore holds the table unsettled until it is forgotten. A neighbour
// agrees when its digest equals ours, or ours without this node's own
// registrations that still owe broadcasts: no neighbour can have those
// before we send them, and one that lacks only them holds no key we lack.
// (A learned entry still owed is not taken out: a neighbour that lacks it
// has not caught up with the gossip that brought it, so its agreement vouches
// for less.) Caller holds c.mu and has expired the table.
func (c *cache) settledLocked(now time.Time, life time.Duration) bool {
	mine, heard := c.digestLocked(), false
	owed := mine
	for _, e := range c.pend {
		if e.svc.Origin == c.self {
			owed.Count--
			owed.Hash -= e.term
		}
	}
	for _, n := range c.nbrs {
		switch {
		case now.Sub(n.at) > life:
		case n.d != mine && n.d != owed:
			return false
		default:
			heard = true
		}
	}
	return heard
}

// settledWithout reports whether the table has settled without an entry
// under k.
func (c *cache) settledWithout(k cacheKey, now time.Time, life time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	return c.entries[k] == nil && c.settledLocked(now, life)
}

// gossip appends to b the encoded adverts the next broadcast carries, within
// budget bytes, and returns the extended slice with the table's digest: the
// entries that
// owe broadcasts, after first re-arming the whole table if no neighbour is
// known to hold it (see heard, mismatch). An entry that does not fit waits
// for the next message without holding up smaller ones behind it.
func (c *cache) gossip(b []byte, budget int, now time.Time) ([]byte, Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	if !c.heard || c.mismatch && now.Sub(c.lastPass) >= resyncEvery {
		c.mismatch, c.lastPass = false, now
		c.scratch = c.scratch[:0]
		for _, e := range c.entries {
			if e.sends == 0 {
				c.scratch = append(c.scratch, e)
			}
		}
		// In key order, so that equal tables make equal passes.
		slices.SortFunc(c.scratch, func(a, b *entry) int { return compareKeys(&a.svc, &b.svc) })
		for _, e := range c.scratch {
			c.arm(e, 1)
		}
	}
	keep := c.pend[:0]
	for _, e := range c.pend {
		adv := advertOf(&e.svc, now)
		size := sizeOfAdvert(&adv)
		switch {
		case adv.TTL < ttlUnit: // would arrive dead
			e.sends = 0
		case size > budget:
			keep = append(keep, e)
		default:
			b = appendAdvert(b, &adv)
			budget -= size
			if e.sends--; e.sends > 0 {
				keep = append(keep, e)
			}
		}
	}
	clear(c.pend[len(keep):])
	c.pend = keep
	return b, c.digestLocked()
}

// advertOf is svc as it goes on the wire at now: with the lifetime it has left.
func advertOf(svc *Service, now time.Time) Advert {
	return Advert{
		Type: svc.Type, Key: svc.Key, URL: svc.URL, Attrs: svc.Attrs,
		Origin: svc.Origin, Seq: svc.Seq, TTL: svc.Expires.Sub(now),
	}
}

// getAny returns the freshest live service of the given type (wildcard
// lookup), the first appendLive would list, so that a wildcard answer — a
// node's own or a relay's reply — is the same on every run of a seed.
func (c *cache) getAny(stype string, now time.Time) (Service, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	var best *Service
	for k, e := range c.entries {
		if k.stype == stype && (best == nil || fresherFirst(&e.svc, best) < 0) {
			best = &e.svc
		}
	}
	if best == nil {
		return Service{}, false
	}
	return *best, true
}

// appendLive appends the live entries of a type ("" for every type) to out,
// freshest first.
func (c *cache) appendLive(out []Service, stype string, now time.Time) []Service {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	n := len(out)
	for _, e := range c.entries {
		if stype == "" || e.svc.Type == stype {
			out = append(out, e.svc)
		}
	}
	slices.SortFunc(out[n:], func(a, b Service) int { return fresherFirst(&a, &b) })
	return out
}

// fresherFirst orders services by expiry, the latest first, and then by
// (type, key): the order a wildcard lookup answers in.
func fresherFirst(a, b *Service) int {
	return cmp.Or(b.Expires.Compare(a.Expires), compareKeys(a, b))
}

func (c *cache) get(stype, key string, now time.Time) (Service, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire(now)
	e := c.entries[cacheKey{stype, key}]
	if e == nil {
		return Service{}, false
	}
	return e.svc, true
}

// wait registers l to be answered by the next entry committed under its key,
// and a lookup until settled also to end at the digest that settles the table
// — unless the table holds the key already, which the caller answers next.
func (c *cache) wait(l *lookup) {
	c.mu.Lock()
	c.waiters[l.ck] = append(c.waiters[l.ck], l)
	if l.untilSettled && c.entries[l.ck] == nil {
		c.settling = append(c.settling, l)
	}
	c.mu.Unlock()
}

// unwait withdraws l, if commit or heardDigest has not already taken it. The
// key keeps its emptied list, so that the next lookup of it — a poll's next
// round — waits without growing one.
func (c *cache) unwait(l *lookup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.waiters[l.ck]
	if i := slices.Index(ws, l); i >= 0 {
		c.waiters[l.ck] = slices.Delete(ws, i, i+1)
	}
	if i := slices.Index(c.settling, l); i >= 0 {
		c.settling = slices.Delete(c.settling, i, i+1)
	}
}

// missed reports whether a fresh remembered miss answers a lookup willing to
// wait timeout. A miss never answers a lookup that would wait longer than the
// query that produced it.
func (c *cache) missed(k cacheKey, timeout time.Duration, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.misses[k]
	return ok && timeout <= m.waited && now.Before(m.until)
}

// noteMiss remembers for life that a query for k waited `waited` in vain,
// unless a fresh miss of at least that wait is already on record.
func (c *cache) noteMiss(k cacheKey, waited time.Duration, now time.Time, life time.Duration) {
	until := now.Add(life)
	c.mu.Lock()
	defer c.mu.Unlock()
	for nowNs := now.UnixNano(); c.missQ.Len() > 0; {
		k, at := c.missQ.Next()
		if c.missQ.Len() < missHardCap && nowNs < at {
			break
		}
		c.missQ.Pop()
		// A key re-noted since has a later queue entry that still covers it.
		if m, ok := c.misses[k]; ok && m.until.UnixNano() <= at {
			delete(c.misses, k)
		}
	}
	if _, ok := c.entries[k]; ok {
		return // the advert beat the deadline
	}
	if m, ok := c.misses[k]; ok && m.waited >= waited && now.Before(m.until) {
		return
	}
	c.misses[k] = miss{waited: waited, until: until}
	c.missQ.Push(k, until.UnixNano())
}

func (c *cache) remove(stype, key string) {
	k := cacheKey{stype, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		c.drop(k, e)
	}
}

// removeOrigin drops every entry learned from origin, returning how many
// were evicted — the fault-invalidation hook for crashed nodes, whose
// adverts would otherwise be served until natural TTL expiry.
func (c *cache) removeOrigin(origin netem.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if e.svc.Origin == origin {
			c.drop(k, e)
			n++
		}
	}
	return n
}

// snapshot returns live entries, optionally filtered by type, sorted by
// (type, key).
func (c *cache) snapshot(stype string, now time.Time) []Service {
	out := c.appendLive(nil, stype, now)
	slices.SortFunc(out, func(a, b Service) int { return compareKeys(&a, &b) })
	return out
}

// compareKeys orders services by (type, key).
func compareKeys(a, b *Service) int {
	return cmp.Or(strings.Compare(a.Type, b.Type), strings.Compare(a.Key, b.Key))
}
