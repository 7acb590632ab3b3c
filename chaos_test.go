package wspeer_test

// Chaos test for the resilience layer (DESIGN.md §10): a real HTTP-binding
// invoke path with seeded fault injection on the primary endpoint, a
// healthy P2PS fallback, and retry+breaker+failover installed. Run it in
// isolation with `make chaos`.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/p2ps"
	"wspeer/internal/transport"
)

// chaosSeed fixes the injector's fault schedule; the test (and `make
// chaos`) must reproduce bit-for-bit from it.
const chaosSeed = 42

// chaosClock drives the breaker's open-timeout deterministically: time
// only moves when the test advances it.
type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosRun is the reproducible trace of one chaos round: which endpoint
// class ("http"/"p2ps") served each of the 100 calls, and the primary
// breaker's state transitions in order.
type chaosRun struct {
	served      []string
	transitions []string
}

func runChaos(t *testing.T, seed int64) chaosRun {
	t.Helper()
	ctx := context.Background()

	taggedEcho := func(name, tag string) wspeer.ServiceDef {
		return wspeer.ServiceDef{
			Name: name,
			Operations: []wspeer.OperationDef{{
				Name:       "echo",
				Func:       func(s string) string { return tag + ":" + s },
				ParamNames: []string{"msg"},
			}},
		}
	}

	// Primary provider: a real HTTP-hosted service.
	httpProvider := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hb.Attach(httpProvider)
	defer hb.Close()
	httpDep, err := httpProvider.Server().Deploy(taggedEcho("Echo", "http"))
	if err != nil {
		t.Fatal(err)
	}

	// Fallback provider: the same service over P2PS pipes on an
	// in-process overlay.
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rdv.Close()
	mkNode := func() *p2ps.Peer {
		n, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	provNode, consNode := mkNode(), mkNode()
	defer provNode.Close()
	defer consNode.Close()
	p2psProvider := wspeer.NewPeer()
	pb, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: provNode, DiscoveryTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pb.Attach(p2psProvider)
	if _, err := p2psProvider.Server().DeployAndPublish(ctx, taggedEcho("Echo", "p2ps")); err != nil {
		t.Fatal(err)
	}

	// Consumer: both bindings attached; the HTTP transport goes through
	// the fault injector, which fails 30% of calls to the primary.
	injector := wspeer.NewFaultInjector(seed)
	injector.SetPlans(wspeer.FaultPlan{Endpoint: httpDep.Endpoint, ErrorRate: 0.3})
	reg := transport.NewRegistry()
	reg.Register(injector.Transport(transport.NewHTTPTransport()))

	// Breakers on a virtual clock advanced 10ms per call: the 50ms open
	// timeout elapses after five refused-primary calls, forcing observable
	// open → half-open → (closed | open) traffic within the run.
	clock := &chaosClock{t: time.Unix(0, 0)}
	var mu sync.Mutex
	var transitions []string
	consumer := wspeer.NewPeer(wspeer.WithBreakers(wspeer.BreakerOptions{
		Window:           8,
		FailureThreshold: 0.5,
		MinSamples:       4,
		OpenTimeout:      50 * time.Millisecond,
		Now:              clock.Now,
		OnChange: func(ep string, from, to wspeer.BreakerState) {
			mu.Lock()
			transitions = append(transitions, from.String()+"->"+to.String())
			mu.Unlock()
		},
	}))
	chb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	chb.Attach(consumer)
	defer chb.Close()
	cpb, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: consNode, DiscoveryTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cpb.Attach(consumer)
	var healthEvents int
	consumer.AddListener(wspeer.ListenerFuncs{Health: func(e wspeer.HealthEvent) {
		mu.Lock()
		healthEvents++
		mu.Unlock()
	}})

	// Retry rides above failover: a walk that exhausts every endpoint is
	// retried as a whole.
	consumer.Client().Use(wspeer.Retry(wspeer.RetryOptions{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		Retryable: func(c *wspeer.PipelineCall, err error) bool { return true },
	}))

	// Locate the fallback through real P2PS discovery; the primary's
	// coordinates came from its deployment.
	httpInfo := &wspeer.ServiceInfo{Name: "Echo", Endpoint: httpDep.Endpoint, Definitions: httpDep.Definitions}
	var p2psInfo *wspeer.ServiceInfo
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		p2psInfo, err = consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "Echo"})
		if err == nil {
			break
		}
	}
	if p2psInfo == nil {
		t.Fatal("P2PS fallback never became locatable")
	}

	inv, err := consumer.Client().NewInvocation(httpInfo, p2psInfo)
	if err != nil {
		t.Fatal(err)
	}
	if eps := inv.Endpoints(); len(eps) != 2 || eps[0] != httpDep.Endpoint {
		t.Fatalf("failover endpoints = %v", eps)
	}

	served := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		clock.Advance(10 * time.Millisecond)
		res, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "m"))
		if err != nil {
			t.Fatalf("call %d surfaced an error despite a healthy fallback: %v", i, err)
		}
		got, err := res.String("return")
		if err != nil {
			t.Fatal(err)
		}
		tag, _, ok := strings.Cut(got, ":")
		if !ok {
			t.Fatalf("call %d: unexpected result %q", i, got)
		}
		served = append(served, tag)
	}

	mu.Lock()
	defer mu.Unlock()
	if healthEvents != len(transitions) {
		t.Fatalf("event tree saw %d health events, breaker fired %d transitions", healthEvents, len(transitions))
	}
	return chaosRun{served: served, transitions: transitions}
}

func TestChaosFailover(t *testing.T) {
	run := runChaos(t, chaosSeed)

	counts := map[string]int{}
	for _, tag := range run.served {
		counts[tag]++
	}
	if counts["http"] == 0 || counts["p2ps"] == 0 {
		t.Fatalf("served = %v: want both the primary and the fallback to carry traffic", counts)
	}
	trace := strings.Join(run.transitions, ",")
	if !strings.Contains(trace, "closed->open") {
		t.Fatalf("breaker never opened: %s", trace)
	}
	if !strings.Contains(trace, "open->half-open") {
		t.Fatalf("breaker never probed: %s", trace)
	}
	if !strings.Contains(trace, "half-open->closed") {
		t.Fatalf("breaker never re-closed: %s", trace)
	}
	t.Logf("served: http=%d p2ps=%d; transitions: %s", counts["http"], counts["p2ps"], trace)
}

func TestChaosDeterministic(t *testing.T) {
	a := runChaos(t, chaosSeed)
	b := runChaos(t, chaosSeed)
	if strings.Join(a.served, ",") != strings.Join(b.served, ",") {
		t.Fatalf("same seed served different endpoints:\n  %v\n  %v", a.served, b.served)
	}
	if strings.Join(a.transitions, ",") != strings.Join(b.transitions, ",") {
		t.Fatalf("same seed walked different breaker states:\n  %v\n  %v", a.transitions, b.transitions)
	}
}
