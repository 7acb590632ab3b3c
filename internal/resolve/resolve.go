// Package resolve is WSPeer's discovery resolution cache: the layer that
// takes *repeated* service discovery off the hot path. The paper's P2P
// framing ("P2P style interactions with unreliable nodes") assumes a
// client re-locates services constantly — before failing over, before a
// bulk scatter, after churn — and the mobile-P2P discovery literature
// (Srirama et al.) shows cached/advertised lookup is what makes that
// viable at scale. A live Locate fans out to every registered locator
// (a UDDI registry round trip, a P2PS advert walk with a discovery
// timeout); this cache memoizes the located set per query identity so
// the steady state is a map hit.
//
// The cache is deliberately ignorant of core's types: callers map their
// query to a canonical string key (core.QueryKey) and their located
// services to Entry values, so the package depends only on the telemetry
// spine. Behaviours, in the order a Get consults them:
//
//   - fresh hit: the line is younger than TTL — return it;
//   - stale hit: the line is past TTL but within StaleFor — return it
//     anyway and kick off one background refresh (stale-while-revalidate),
//     so a popular query never blocks on rediscovery;
//   - negative hit: the last lookup errored or found nothing — replay
//     that outcome until NegativeTTL expires, so a missing service does
//     not hammer the locators;
//   - miss: run the lookup, collapsing concurrent identical misses into
//     a single flight whose result every waiter shares.
//
// Invalidation is event-driven, wired by core to the resilience layer:
// an endpoint whose circuit breaker opens is evicted from every cached
// line (EvictEndpoint), and an endpoint that fails over is demoted to
// the back of its lines' preference order (DemoteEndpoint).
package resolve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/telemetry"
)

// Spine instruments: lifetime counters across every cache in the process
// (per-cache figures stay available via Stats) and a size gauge that
// caches move by deltas, so concurrent caches sum.
var (
	mHits      = telemetry.Default().Meter.Counter("resolve.cache.hits")
	mMisses    = telemetry.Default().Meter.Counter("resolve.cache.misses")
	mStale     = telemetry.Default().Meter.Counter("resolve.cache.stale")
	mRefreshes = telemetry.Default().Meter.Counter("resolve.cache.refreshes")
	mNegative  = telemetry.Default().Meter.Counter("resolve.cache.negative")
	mCollapsed = telemetry.Default().Meter.Counter("resolve.cache.collapsed")
	mEvictions = telemetry.Default().Meter.Counter("resolve.cache.evictions")
	gSize      = telemetry.Default().Meter.Gauge("resolve.cache.size")
)

// Entry is one located endpoint within a cached resolution: the endpoint
// identity the invalidation hooks key on, plus an opaque value (core
// stores the *ServiceInfo itself). Entries keep the locators' preference
// order; DemoteEndpoint reorders it.
type Entry struct {
	// Endpoint is the located endpoint URI (http://..., p2ps://...).
	Endpoint string
	// Value is the caller's located-service record, opaque to the cache.
	Value interface{}
}

// LookupFunc performs a live resolution on a cache miss or refresh.
type LookupFunc func(ctx context.Context) ([]Entry, error)

// Options tunes a Cache. The zero value means a 30-second TTL, an equal
// stale-while-revalidate window, a 2-second negative TTL and room for
// 1024 query lines.
type Options struct {
	// TTL is how long a resolution is served without question
	// (default 30s).
	TTL time.Duration
	// StaleFor extends a line's life past TTL: within the window the
	// stale set is returned immediately while one background refresh
	// re-resolves it (default: equal to TTL). Zero after defaulting
	// disables serve-stale (<0 forces it off explicitly).
	StaleFor time.Duration
	// NegativeTTL is how long an error or empty resolution is replayed
	// before the locators are consulted again (default 2s).
	NegativeTTL time.Duration
	// MaxEntries bounds the number of cached query lines; the least
	// recently used line is evicted at the bound (default 1024).
	MaxEntries int
	// Now is the clock (default time.Now); tests inject a fake to drive
	// TTL transitions deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.StaleFor == 0 {
		o.StaleFor = o.TTL
	}
	if o.StaleFor < 0 {
		o.StaleFor = 0
	}
	if o.NegativeTTL <= 0 {
		o.NegativeTTL = 2 * time.Second
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Stats is a point-in-time counter snapshot of one cache.
type Stats struct {
	// Hits counts Gets served from a fresh line.
	Hits int64
	// Misses counts Gets that ran (or joined) a live lookup.
	Misses int64
	// Stale counts Gets served a stale line while a refresh ran.
	Stale int64
	// Refreshes counts background stale-line refreshes started.
	Refreshes int64
	// Negative counts Gets that replayed a cached error/empty outcome.
	Negative int64
	// Collapsed counts Gets that joined another caller's in-flight
	// lookup instead of starting their own.
	Collapsed int64
	// Evictions counts lines dropped: invalidations, endpoint
	// evictions that emptied a line, LRU pressure and expiries.
	Evictions int64
	// Size is the current number of cached query lines.
	Size int
}

// line is one cached resolution.
type line struct {
	entries  []Entry
	err      error // negative line when set (entries nil)
	fetched  time.Time
	lastUsed time.Time
	// refreshing marks an in-progress stale-while-revalidate refresh so
	// concurrent stale hits trigger only one.
	refreshing bool
}

func (l *line) negative() bool { return l.err != nil || len(l.entries) == 0 }

// flight is one in-progress lookup that concurrent identical Gets share.
type flight struct {
	done    chan struct{}
	entries []Entry
	err     error
}

// Cache is a resolution cache mapping query identity → located Entry set.
// All methods are safe for concurrent use.
type Cache struct {
	opts Options

	mu      sync.Mutex
	lines   map[string]*line
	flights map[string]*flight

	hits, misses, stale, refreshes atomic.Int64
	negative, collapsed, evictions atomic.Int64
}

// New returns an empty cache.
func New(opts Options) *Cache {
	return &Cache{
		opts:    opts.withDefaults(),
		lines:   make(map[string]*line),
		flights: make(map[string]*flight),
	}
}

// Options returns the effective (defaulted) options.
func (c *Cache) Options() Options { return c.opts }

// Get resolves key through the cache: a fresh line is returned as is, a
// stale one is returned while a single background refresh re-runs lookup,
// a negative one replays the cached outcome, and a miss runs lookup —
// collapsing concurrent misses for the same key into one flight. The
// returned slice is a copy; the Entry values are shared.
func (c *Cache) Get(ctx context.Context, key string, lookup LookupFunc) ([]Entry, error) {
	now := c.opts.Now()
	c.mu.Lock()
	if l, ok := c.lines[key]; ok {
		age := now.Sub(l.fetched)
		switch {
		case l.negative():
			if age <= c.opts.NegativeTTL {
				l.lastUsed = now
				err := l.err
				c.mu.Unlock()
				c.negative.Add(1)
				mNegative.Inc()
				return nil, err
			}
			c.dropLocked(key) // negative window over: resolve live again
		case age <= c.opts.TTL:
			l.lastUsed = now
			out := append([]Entry(nil), l.entries...)
			c.mu.Unlock()
			c.hits.Add(1)
			mHits.Inc()
			return out, nil
		case age <= c.opts.TTL+c.opts.StaleFor:
			l.lastUsed = now
			out := append([]Entry(nil), l.entries...)
			refresh := !l.refreshing
			if refresh {
				l.refreshing = true
			}
			c.mu.Unlock()
			c.stale.Add(1)
			mStale.Inc()
			if refresh {
				c.refreshes.Add(1)
				mRefreshes.Inc()
				go c.refresh(key, lookup)
			}
			return out, nil
		default:
			c.dropLocked(key) // too stale even to serve
		}
	}

	// Miss: join an existing flight for the key, or lead a new one.
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.collapsed.Add(1)
		mCollapsed.Inc()
		select {
		case <-fl.done:
			return append([]Entry(nil), fl.entries...), fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	mMisses.Inc()

	fl.entries, fl.err = lookup(ctx)
	close(fl.done)
	c.store(key, fl.entries, fl.err)
	return append([]Entry(nil), fl.entries...), fl.err
}

// refresh re-resolves a stale line in the background. The caller's
// context is not used: the refresh outlives the Get that triggered it.
func (c *Cache) refresh(key string, lookup LookupFunc) {
	entries, err := lookup(context.Background())
	if err != nil {
		// A failed refresh keeps the stale line rather than replacing a
		// known-good (if aging) resolution with an error; the line ages
		// out through the normal TTL+StaleFor horizon.
		c.mu.Lock()
		if l, ok := c.lines[key]; ok {
			l.refreshing = false
		}
		c.mu.Unlock()
		return
	}
	c.store(key, entries, nil)
}

// store installs a lookup outcome as the key's line. Context
// cancellations are not cached: the caller gave up, which says nothing
// about the service.
func (c *Cache) store(key string, entries []Entry, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, key)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		c.dropLocked(key)
		return
	}
	now := c.opts.Now()
	if _, exists := c.lines[key]; !exists {
		gSize.Add(1)
	}
	c.lines[key] = &line{
		entries:  append([]Entry(nil), entries...),
		err:      err,
		fetched:  now,
		lastUsed: now,
	}
	for len(c.lines) > c.opts.MaxEntries {
		if !c.evictOldestLocked(key) {
			break
		}
	}
}

// evictOldestLocked drops the least recently used line other than keep;
// it reports whether a line was evicted.
func (c *Cache) evictOldestLocked(keep string) bool {
	var victim string
	var oldest time.Time
	for k, l := range c.lines {
		if k == keep {
			continue
		}
		if victim == "" || l.lastUsed.Before(oldest) {
			victim, oldest = k, l.lastUsed
		}
	}
	if victim == "" {
		return false
	}
	c.dropLocked(victim)
	return true
}

func (c *Cache) dropLocked(key string) {
	if _, ok := c.lines[key]; ok {
		delete(c.lines, key)
		gSize.Add(-1)
		c.evictions.Add(1)
		mEvictions.Inc()
	}
}

// Invalidate drops the line for one key; the next Get resolves live.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(key)
}

// Clear drops every cached line.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.lines {
		c.dropLocked(k)
	}
}

// EvictEndpoint removes an endpoint from every cached line — the hook
// core wires to circuit-breaker opens, so a line never keeps offering an
// endpoint the resilience layer has condemned. A line left with no
// entries is dropped entirely (the next Get re-resolves); negative lines
// are untouched. It returns the number of lines changed.
func (c *Cache) EvictEndpoint(endpoint string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := 0
	for key, l := range c.lines {
		if l.negative() {
			continue
		}
		kept := l.entries[:0]
		for _, e := range l.entries {
			if e.Endpoint != endpoint {
				kept = append(kept, e)
			}
		}
		if len(kept) == len(l.entries) {
			continue
		}
		changed++
		if len(kept) == 0 {
			c.dropLocked(key)
			continue
		}
		l.entries = kept
	}
	return changed
}

// DemoteEndpoint moves an endpoint to the back of every cached line's
// preference order — the hook core wires to failover misses, so the
// next invocation bound to the cached line tries healthier endpoints first. It
// returns the number of lines reordered.
func (c *Cache) DemoteEndpoint(endpoint string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := 0
	for _, l := range c.lines {
		if l.negative() || len(l.entries) < 2 {
			continue
		}
		var demoted []Entry
		kept := l.entries[:0]
		for _, e := range l.entries {
			if e.Endpoint == endpoint {
				demoted = append(demoted, e)
			} else {
				kept = append(kept, e)
			}
		}
		if len(demoted) == 0 || len(kept) == 0 {
			continue
		}
		l.entries = append(kept, demoted...)
		changed++
	}
	return changed
}

// Len returns the number of cached query lines.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lines)
}

// Stats returns a point-in-time snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	size := len(c.lines)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Refreshes: c.refreshes.Load(),
		Negative:  c.negative.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
	}
}
