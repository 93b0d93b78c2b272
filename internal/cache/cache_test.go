package cache

import (
	"testing"
	"time"
)

func at(sec int64) time.Time { return time.Unix(sec, 0) }

func entry(url string, size int, stored, expires int64, pop float64) *Entry {
	return &Entry{
		URL: url, Data: make([]byte, size),
		StoredAt: at(stored), ExpiresAt: at(expires), Popularity: pop,
	}
}

func TestPutGetExpiry(t *testing.T) {
	c := New(0)
	c.Put(entry("a.pk/", 100, 0, 100, 1))
	if _, ok := c.Get("a.pk/", at(50)); !ok {
		t.Fatal("fresh entry missing")
	}
	if _, ok := c.Get("a.pk/", at(101)); ok {
		t.Fatal("expired entry served")
	}
	if _, ok := c.Get("nope", at(0)); ok {
		t.Fatal("phantom entry")
	}
	// Zero expiry = never expires.
	c.Put(&Entry{URL: "b.pk/", Data: []byte{1}, StoredAt: at(0)})
	if _, ok := c.Get("b.pk/", at(1<<40)); !ok {
		t.Fatal("zero-expiry entry should persist")
	}
}

func TestReplaceAccounting(t *testing.T) {
	c := New(0)
	c.Put(entry("a.pk/", 100, 0, 100, 1))
	c.Put(entry("a.pk/", 40, 1, 100, 1))
	if c.used != 40 {
		t.Errorf("used = %d, want 40", c.used)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New(250)
	c.Put(entry("popular.pk/", 100, 0, 1000, 9))
	c.Put(entry("unpopular.pk/", 100, 1, 1000, 1))
	c.Put(entry("new.pk/", 100, 2, 1000, 5)) // exceeds 250 -> evict unpopular
	if _, ok := c.Get("unpopular.pk/", at(3)); ok {
		t.Error("least popular should be evicted")
	}
	if _, ok := c.Get("popular.pk/", at(3)); !ok {
		t.Error("popular entry evicted")
	}
	if c.used > 250 {
		t.Errorf("used %d exceeds bound", c.used)
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	c := New(250)
	c.Put(entry("stale.pk/", 100, 0, 1, 9)) // most popular but expired
	c.Put(entry("fresh1.pk/", 100, 5, 1000, 1))
	c.Put(entry("fresh2.pk/", 100, 6, 1000, 2))
	if _, ok := c.Get("stale.pk/", at(7)); ok {
		t.Error("expired entry should have been evicted despite popularity")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCatalogOrdering(t *testing.T) {
	c := New(0)
	c.Put(entry("b.pk/", 1, 0, 100, 2))
	c.Put(entry("a.pk/", 1, 0, 100, 2))
	c.Put(entry("top.pk/", 1, 0, 100, 8))
	c.Put(entry("stale.pk/", 1, 0, 1, 99))
	cat := c.Catalog(at(50))
	if len(cat) != 3 {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	if cat[0].URL != "top.pk/" {
		t.Errorf("catalog[0] = %s", cat[0].URL)
	}
	if cat[1].URL != "a.pk/" || cat[2].URL != "b.pk/" {
		t.Errorf("tie break wrong: %s, %s", cat[1].URL, cat[2].URL)
	}
}
