package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/resilience"
	"wspeer/internal/resolve"
)

// countLocator counts live Locate fan-outs so tests can prove a cache hit
// never reached discovery.
type countLocator struct {
	name    string
	results []*ServiceInfo
	err     error
	calls   atomic.Int64
}

func (f *countLocator) Name() string { return f.name }
func (f *countLocator) Locate(ctx context.Context, q ServiceQuery, found func(*ServiceInfo)) error {
	f.calls.Add(1)
	for _, r := range f.results {
		if q.QueryName() != "" && q.QueryName() != r.Name {
			continue
		}
		// Each hit is a fresh copy: cached lines must not alias locator
		// state between resolutions.
		info := *r
		found(&info)
	}
	return f.err
}

type keyedQuery struct{ id string }

func (keyedQuery) QueryName() string  { return "keyed" }
func (q keyedQuery) CacheKey() string { return "custom|" + q.id }

func TestQueryKeyCanonicalization(t *testing.T) {
	a := NameQuery{Name: "Echo", MaxResults: 3, Attrs: map[string]string{"ver": "1", "zone": "eu"}}
	b := NameQuery{Name: "Echo", MaxResults: 3, Attrs: map[string]string{"zone": "eu", "ver": "1"}}
	if QueryKey(a) != QueryKey(b) {
		t.Fatalf("attr order changed identity: %q vs %q", QueryKey(a), QueryKey(b))
	}
	if QueryKey(a) == QueryKey(NameQuery{Name: "Echo", MaxResults: 4, Attrs: a.Attrs}) {
		t.Fatal("MaxResults not part of identity")
	}
	if QueryKey(NameQuery{Name: "Echo"}) == QueryKey(ExprQuery{Name: "Echo"}) {
		t.Fatal("query kinds collide")
	}
	if QueryKey(keyedQuery{id: "x"}) != "custom|x" {
		t.Fatalf("CacheKeyer not honored: %q", QueryKey(keyedQuery{id: "x"}))
	}
}

func TestLocateCachedServesFromCache(t *testing.T) {
	p := NewPeer()
	loc := &countLocator{name: "l", results: []*ServiceInfo{
		{Name: "Echo", Endpoint: "http://a/Echo"},
		{Name: "Echo", Endpoint: "p2ps://b/Echo"},
	}}
	p.Client().AddLocator(loc)
	ctx := context.Background()
	q := NameQuery{Name: "Echo"}

	first, err := p.Client().LocateCached(ctx, q)
	if err != nil || len(first) != 2 {
		t.Fatalf("first = %v, %v", first, err)
	}
	for i := 0; i < 10; i++ {
		again, err := p.Client().LocateCached(ctx, q)
		if err != nil || len(again) != 2 {
			t.Fatalf("cached = %v, %v", again, err)
		}
	}
	if n := loc.calls.Load(); n != 1 {
		t.Fatalf("live locates = %d, want 1", n)
	}
	s := p.Client().ResolutionCache().Stats()
	if s.Hits != 10 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// A different query identity is a separate line.
	p.Client().LocateCached(ctx, NameQuery{Name: "Echo", MaxResults: 1})
	if n := loc.calls.Load(); n != 2 {
		t.Fatalf("distinct query shared a line: %d live locates", n)
	}
}

func TestLocateCachedNegative(t *testing.T) {
	p := NewPeer()
	loc := &countLocator{name: "l", err: errors.New("registry down")}
	p.Client().AddLocator(loc)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Client().LocateCached(ctx, NameQuery{Name: "Echo"}); err == nil {
			t.Fatal("total locator failure not surfaced")
		}
	}
	if n := loc.calls.Load(); n != 1 {
		t.Fatalf("failed resolution not negative-cached: %d live locates", n)
	}
}

func TestWithResolutionCache(t *testing.T) {
	p := NewPeer(WithResolutionCache(resolve.Options{TTL: time.Hour}))
	loc := &countLocator{name: "l", results: []*ServiceInfo{{Name: "Echo", Endpoint: "http://a"}}}
	p.Client().AddLocator(loc)
	ctx := context.Background()
	p.Client().LocateCached(ctx, NameQuery{Name: "Echo"})
	p.Client().LocateCached(ctx, NameQuery{Name: "Echo"})
	if n := loc.calls.Load(); n != 1 {
		t.Fatalf("configured cache missed: %d live locates", n)
	}
	if ttl := p.Client().ResolutionCache().Options().TTL; ttl != time.Hour {
		t.Fatalf("options not applied: TTL = %v", ttl)
	}
}

func TestNewInvocationFromCachedLocate(t *testing.T) {
	p := NewPeer()
	p.Client().AddLocator(&countLocator{name: "l", results: []*ServiceInfo{
		{Name: "Echo", Endpoint: "http://a/Echo"},
		{Name: "Echo", Endpoint: "http://b/Echo"},
	}})
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, result: &engine.Result{}})
	ctx := context.Background()
	infos, err := p.Client().LocateCached(ctx, NameQuery{Name: "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := p.Client().NewInvocation(infos...)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(inv.targets))
	}
	infos, _ = p.Client().LocateCached(ctx, NameQuery{Name: "Missing"})
	if _, err := p.Client().NewInvocation(infos...); err == nil {
		t.Fatal("missing service bound")
	}
}

func TestBreakerOpenEvictsCachedEndpoint(t *testing.T) {
	p := NewPeer(WithBreakers(resilience.BreakerOptions{Window: 4, MinSamples: 2, FailureThreshold: 0.5}))
	loc := &countLocator{name: "l", results: []*ServiceInfo{
		{Name: "Echo", Endpoint: "http://bad/Echo"},
		{Name: "Echo", Endpoint: "p2ps://ok/Echo"},
	}}
	p.Client().AddLocator(loc)
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, err: errors.New("conn refused")})
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"p2ps"}, result: &engine.Result{}})
	ctx := context.Background()
	q := NameQuery{Name: "Echo"}

	infos, err := p.Client().LocateCached(ctx, q)
	if err != nil || len(infos) != 2 {
		t.Fatalf("seed = %v, %v", infos, err)
	}

	// Hammer the bad endpoint until its breaker opens — through the
	// failover walk, which records per-attempt breaker outcomes. The
	// OnChange hook must evict the opened endpoint from the cached
	// resolution.
	inv, err := p.Client().NewInvocation(infos...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := inv.Invoke(ctx, "op"); err != nil {
			t.Fatalf("failover invoke %d: %v", i, err)
		}
	}
	if st := p.Client().Breakers().Breaker("http://bad/Echo").State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	after, err := p.Client().LocateCached(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range after {
		if info.Endpoint == "http://bad/Echo" {
			t.Fatal("broken endpoint still cached")
		}
	}
	if len(after) != 1 || after[0].Endpoint != "p2ps://ok/Echo" {
		t.Fatalf("surviving line = %v", after)
	}
	if n := loc.calls.Load(); n != 1 {
		t.Fatalf("eviction dropped the whole line: %d live locates", n)
	}
}

func TestFailoverMissDemotesCachedEndpoint(t *testing.T) {
	p := NewPeer()
	loc := &countLocator{name: "l", results: []*ServiceInfo{
		{Name: "Echo", Endpoint: "http://flaky/Echo"},
		{Name: "Echo", Endpoint: "p2ps://steady/Echo"},
	}}
	p.Client().AddLocator(loc)
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, err: errors.New("conn refused")})
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"p2ps"}, result: &engine.Result{}})
	ctx := context.Background()
	q := NameQuery{Name: "Echo"}

	infos, err := p.Client().LocateCached(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := p.Client().NewInvocation(infos...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Invoke(ctx, "op"); err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	// The failed-over endpoint is now at the back of the cached line.
	after, err := p.Client().LocateCached(ctx, q)
	if err != nil || len(after) != 2 {
		t.Fatalf("after = %v, %v", after, err)
	}
	if after[0].Endpoint != "p2ps://steady/Echo" || after[1].Endpoint != "http://flaky/Echo" {
		t.Fatalf("order = [%s %s], want steady first", after[0].Endpoint, after[1].Endpoint)
	}
	if n := loc.calls.Load(); n != 1 {
		t.Fatalf("demotion invalidated the line: %d live locates", n)
	}
}

// TestLocateCachedConcurrent drives cached resolution from many
// goroutines while invalidation runs — the -race target for the tentpole
// wiring.
func TestLocateCachedConcurrent(t *testing.T) {
	p := NewPeer()
	p.Client().AddLocator(&countLocator{name: "l", results: []*ServiceInfo{
		{Name: "Echo", Endpoint: "http://a/Echo"},
		{Name: "Echo", Endpoint: "http://b/Echo"},
	}})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch i % 3 {
				case 0, 1:
					p.Client().LocateCached(ctx, NameQuery{Name: "Echo"})
				default:
					p.Client().ResolutionCache().DemoteEndpoint("http://a/Echo")
				}
			}
		}()
	}
	wg.Wait()
}
