// Package cache implements the client-side page cache from §3.1: received
// webpages are inserted "with expiration date set according to a time
// indicated by the server", hyperlink navigation hits the cache before
// falling back to the SMS uplink, and the catalog view lists what is
// currently browsable offline.
//
// internal/client is its only user. It stays a package of its own because
// expiry and popularity-then-age eviction are one policy behind one
// interface (Put/Get/Catalog), not a fourth copy of the server's
// byte-capped artifact cache.
package cache

import (
	"sort"
	"sync"
	"time"
)

// Entry is one cached page.
type Entry struct {
	URL        string
	Data       []byte // encoded page image (SIC stream) or raw payload
	ClickMap   []byte // serialized click map, may be nil
	StoredAt   time.Time
	ExpiresAt  time.Time
	Popularity float64 // server-assigned hint for catalog ordering
}

// Expired reports whether the entry is stale at the given time.
func (e *Entry) Expired(now time.Time) bool {
	return !e.ExpiresAt.IsZero() && now.After(e.ExpiresAt)
}

// Cache is a size-bounded page store. Eviction removes expired entries
// first, then the least popular, oldest entries.
type Cache struct {
	mu       sync.Mutex
	maxBytes int
	entries  map[string]*Entry
	used     int
}

// New creates a cache bounded to maxBytes of page data (0 = unbounded).
func New(maxBytes int) *Cache {
	return &Cache{maxBytes: maxBytes, entries: make(map[string]*Entry)}
}

// Put stores a page, replacing any previous version.
func (c *Cache) Put(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.URL]; ok {
		c.used -= len(old.Data) + len(old.ClickMap)
	}
	c.entries[e.URL] = e
	c.used += len(e.Data) + len(e.ClickMap)
	c.evictLocked(e.StoredAt)
}

// Get returns the entry for url if present and fresh.
func (c *Cache) Get(url string, now time.Time) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[url]
	if !ok || e.Expired(now) {
		return nil, false
	}
	return e, true
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Catalog lists cached, fresh pages ordered by popularity then URL — the
// browsable list the SONIC app shows (§3.1: "the app shows a catalog of
// available webpages, organized by content, popularity...").
func (c *Cache) Catalog(now time.Time) []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		if !e.Expired(now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Popularity != out[j].Popularity {
			return out[i].Popularity > out[j].Popularity
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// evictLocked enforces the byte bound.
func (c *Cache) evictLocked(now time.Time) {
	if c.maxBytes <= 0 || c.used <= c.maxBytes {
		return
	}
	// Expired first.
	for url, e := range c.entries {
		if c.used <= c.maxBytes {
			return
		}
		if e.Expired(now) {
			c.used -= len(e.Data) + len(e.ClickMap)
			delete(c.entries, url)
		}
	}
	// Then least popular, oldest.
	for c.used > c.maxBytes && len(c.entries) > 0 {
		var victim *Entry
		for _, e := range c.entries {
			if victim == nil ||
				e.Popularity < victim.Popularity ||
				(e.Popularity == victim.Popularity && e.StoredAt.Before(victim.StoredAt)) {
				victim = e
			}
		}
		c.used -= len(victim.Data) + len(victim.ClickMap)
		delete(c.entries, victim.URL)
	}
}
