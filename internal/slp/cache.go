package slp

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"siphoc/internal/netem"
)

type cacheKey struct {
	stype string
	key   string
}

// cache stores remote service registrations learned from the network,
// applying per-origin freshness (higher Seq wins; equal Seq refreshes the
// expiry) and lazy TTL expiry.
type cache struct {
	mu      sync.Mutex
	entries map[cacheKey]Service
	// waiters are lookup calls blocked until a matching entry appears.
	waiters map[cacheKey][]chan Service
	// misses remembers exact-key network queries that timed out, so the
	// next lookup of the key need not wait the same timeout out again.
	// Bounded and pruned in deadline order through missH, like seenQ.
	misses map[cacheKey]miss
	missH  deadlineHeap[cacheKey]
}

// miss is a remembered negative answer: a network query that waited this
// long and heard nothing, trusted until the deadline.
type miss struct {
	waited time.Duration
	until  time.Time
}

// missHardCap bounds the miss set; beyond it the entries closest to expiry
// are dropped (a forgotten miss only costs one more blocking query).
const missHardCap = 1024

func newCache() *cache {
	return &cache{
		entries: make(map[cacheKey]Service),
		waiters: make(map[cacheKey][]chan Service),
		misses:  make(map[cacheKey]miss),
	}
}

// upsert applies the freshness rule; it reports whether the entry was
// accepted (installed or refreshed). Wildcard waiters (key "") of the same
// type are signalled too.
func (c *cache) upsert(svc Service) bool {
	k := cacheKey{svc.Type, svc.Key}
	c.mu.Lock()
	cur, ok := c.entries[k]
	if ok && cur.Origin == svc.Origin && cur.Seq > svc.Seq {
		c.mu.Unlock()
		return false
	}
	c.entries[k] = svc
	// An advert is fresher evidence than any remembered miss.
	delete(c.misses, k)
	waiters := c.waiters[k]
	delete(c.waiters, k)
	if svc.Key != "" {
		wk := cacheKey{svc.Type, ""}
		waiters = append(waiters, c.waiters[wk]...)
		delete(c.waiters, wk)
	}
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- svc
	}
	return true
}

// getAny returns any live service of the given type (wildcard lookup).
func (c *cache) getAny(stype string, now time.Time) (Service, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, svc := range c.entries {
		if k.stype != stype {
			continue
		}
		if now.After(svc.Expires) {
			delete(c.entries, k)
			continue
		}
		return svc, true
	}
	return Service{}, false
}

func (c *cache) get(stype, key string, now time.Time) (Service, bool) {
	k := cacheKey{stype, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	svc, ok := c.entries[k]
	if !ok {
		return Service{}, false
	}
	if now.After(svc.Expires) {
		delete(c.entries, k)
		return Service{}, false
	}
	return svc, true
}

// wait registers a waiter channel for the key; the caller selects on it.
// cancel must be called if the waiter gives up.
func (c *cache) wait(stype, key string) (ch chan Service, cancel func()) {
	k := cacheKey{stype, key}
	ch = make(chan Service, 1)
	c.mu.Lock()
	c.waiters[k] = append(c.waiters[k], ch)
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		ws := c.waiters[k]
		for i, w := range ws {
			if w == ch {
				c.waiters[k] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
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
	for len(c.missH) > 0 && (len(c.missH) >= missHardCap || !now.Before(c.missH[0].at)) {
		top := heap.Pop(&c.missH).(deadlineItem[cacheKey])
		// A key re-noted since has a later heap entry that still covers it.
		if m, ok := c.misses[top.k]; ok && !m.until.After(top.at) {
			delete(c.misses, top.k)
		}
	}
	if _, ok := c.entries[k]; ok {
		return // the advert beat the deadline
	}
	if m, ok := c.misses[k]; ok && m.waited >= waited && now.Before(m.until) {
		return
	}
	c.misses[k] = miss{waited: waited, until: until}
	heap.Push(&c.missH, deadlineItem[cacheKey]{k: k, at: until})
}

func (c *cache) remove(stype, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, cacheKey{stype, key})
}

// removeOrigin drops every entry learned from origin, returning how many
// were evicted — the fault-invalidation hook for crashed nodes, whose
// adverts would otherwise be served until natural TTL expiry.
func (c *cache) removeOrigin(origin netem.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, svc := range c.entries {
		if svc.Origin == origin {
			delete(c.entries, k)
			n++
		}
	}
	return n
}

// snapshot returns live entries, optionally filtered by type, sorted by
// (type, key).
func (c *cache) snapshot(stype string, now time.Time) []Service {
	return c.snapshotInto(nil, stype, now)
}

// snapshotInto appends live entries to out (normally out[:0] of a reused
// scratch slice) so steady-state callers avoid reallocating per call.
func (c *cache) snapshotInto(out []Service, stype string, now time.Time) []Service {
	c.mu.Lock()
	defer c.mu.Unlock()
	if out == nil {
		out = make([]Service, 0, len(c.entries))
	}
	for k, svc := range c.entries {
		if now.After(svc.Expires) {
			delete(c.entries, k)
			continue
		}
		if stype != "" && svc.Type != stype {
			continue
		}
		out = append(out, svc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Key < out[j].Key
	})
	return out
}
