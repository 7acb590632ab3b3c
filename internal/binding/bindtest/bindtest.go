// Package bindtest is the shared conformance suite for substrate bindings:
// one battery of lifecycle tests — deploy → publish → locate → invoke →
// fault → detach → close — that every binding (httpbind, p2psbind,
// inmembind, and any future substrate) must pass identically. A binding's
// test package supplies a World describing how to stand its substrate up;
// Run does the rest, so the contract is enforced by construction rather
// than by parallel hand-written suites drifting apart.
package bindtest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// Fabric is one instance of a binding's substrate (an overlay, a registry,
// an in-memory network): peers minted from the same fabric can discover
// and reach each other.
type Fabric struct {
	// NewPeer returns a fresh peer with a fresh binding of the world's
	// kind attached (via AttachBinding). The binding must be usable until
	// the test ends; substrate teardown belongs in t.Cleanup.
	NewPeer func(t *testing.T) (*core.Peer, core.Binding)
}

// World describes a binding kind to the conformance suite.
type World struct {
	// NewFabric stands up an isolated substrate instance. Each subtest
	// gets its own fabric, so no state leaks between them.
	NewFabric func(t *testing.T) *Fabric
	// LocateDeadline bounds how long the suite retries discovery before
	// declaring a service unlocatable (default 10s; raise it for
	// substrates with slow advert propagation).
	LocateDeadline time.Duration
}

// Run applies the conformance suite to a binding kind.
func Run(t *testing.T, w World) {
	if w.LocateDeadline <= 0 {
		w.LocateDeadline = 10 * time.Second
	}
	t.Run("Lifecycle", func(t *testing.T) { testLifecycle(t, w) })
	t.Run("AttachIdempotent", func(t *testing.T) { testAttachIdempotent(t, w) })
	t.Run("DetachRemovesComponents", func(t *testing.T) { testDetachRemovesComponents(t, w) })
	t.Run("CloseDrainsInFlight", func(t *testing.T) { testCloseDrainsInFlight(t, w) })
	t.Run("TelemetrySequence", func(t *testing.T) { testTelemetrySequence(t, w) })
}

// testTelemetrySequence pins the telemetry contract every substrate must
// honour identically: one round-trip invocation produces exactly one
// server.dispatch span and one client.invoke span (ending in that order),
// both carrying the service and operation, plus one client row and one
// server row in the spine's call table. Parent/child linkage is asserted
// only when the substrate propagated the trace context (bindings whose
// server side cannot carry the caller's context emit an unparented
// dispatch span — the sequence itself must still be identical).
func testTelemetrySequence(t *testing.T, w World) {
	fab := w.NewFabric(t)
	provider, _ := fab.NewPeer(t)
	consumer, _ := fab.NewPeer(t)
	ctx := context.Background()

	ring := telemetry.NewSpanRing(0)
	prev := telemetry.Default().Tracer.SetSink(ring)
	t.Cleanup(func() { telemetry.Default().Tracer.SetSink(prev) })

	const svcName = "TelemetryConformance"
	table := telemetry.Default().Calls
	clientBefore := table.Service(svcName, telemetry.DirClient).Calls
	serverBefore := table.Service(svcName, telemetry.DirServer).Calls

	if _, err := provider.Server().DeployAndPublish(ctx, conformanceDef(svcName)); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, w, consumer, svcName)
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "tele")); err != nil {
		t.Fatal(err)
	} else if got, _ := res.String("return"); got != "echo:tele" {
		t.Fatalf("echoString = %q", got)
	}

	var spans []telemetry.SpanData
	for _, d := range ring.Spans() {
		if d.Service == svcName {
			spans = append(spans, d)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("round trip produced %d spans for %s, want 2 (server.dispatch, client.invoke): %+v",
			len(spans), svcName, spans)
	}
	srv, cli := spans[0], spans[1]
	if srv.Name != "server.dispatch" || cli.Name != "client.invoke" {
		t.Fatalf("span sequence = [%s, %s], want [server.dispatch, client.invoke]", srv.Name, cli.Name)
	}
	for _, d := range []telemetry.SpanData{srv, cli} {
		if d.Op != "echoString" {
			t.Fatalf("%s span Op = %q, want echoString", d.Name, d.Op)
		}
		if d.Err != "" {
			t.Fatalf("%s span recorded error %q on a successful call", d.Name, d.Err)
		}
		if d.Duration() <= 0 {
			t.Fatalf("%s span has non-positive duration", d.Name)
		}
	}
	if srv.Dir != telemetry.DirServer || cli.Dir != telemetry.DirClient {
		t.Fatalf("span directions = %q/%q, want server/client", srv.Dir, cli.Dir)
	}
	if cli.Endpoint == "" {
		t.Fatal("client span does not record the endpoint")
	}
	if srv.ParentID != 0 {
		// The substrate propagated the trace: dispatch must be the
		// invocation's child within one trace.
		if srv.TraceID != cli.TraceID || srv.ParentID != cli.SpanID {
			t.Fatalf("propagated trace is not linked: server (trace %x, parent %x), client (trace %x, span %x)",
				srv.TraceID, srv.ParentID, cli.TraceID, cli.SpanID)
		}
	}

	if got := table.Service(svcName, telemetry.DirClient).Calls - clientBefore; got != 1 {
		t.Fatalf("call table client row grew by %d, want 1", got)
	}
	if got := table.Service(svcName, telemetry.DirServer).Calls - serverBefore; got != 1 {
		t.Fatalf("call table server row grew by %d, want 1", got)
	}
}

// conformanceDef is the service every binding hosts for the suite: a
// round-trip echo, a faulting operation, a slow operation (for drain
// tests) and a one-way notification.
func conformanceDef(name string) engine.ServiceDef {
	return engine.ServiceDef{
		Name: name,
		Operations: []engine.OperationDef{
			{Name: "echoString", Func: func(s string) string { return "echo:" + s }, ParamNames: []string{"msg"}},
			{Name: "fail", Func: func() (string, error) { return "", errors.New("intentional") }},
			{Name: "slow", Func: func(s string) string {
				time.Sleep(150 * time.Millisecond)
				return "slow:" + s
			}, ParamNames: []string{"msg"}},
			{Name: "notify", Func: func(s string) error { return nil }, OneWay: true},
		},
	}
}

// locateWithRetry tolerates advert/record propagation latency.
func locateWithRetry(t *testing.T, w World, p *core.Peer, name string) *core.ServiceInfo {
	t.Helper()
	deadline := time.Now().Add(w.LocateDeadline)
	for time.Now().Before(deadline) {
		info, err := p.Client().LocateOne(context.Background(), core.NameQuery{Name: name})
		if err == nil {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("service %q never became locatable", name)
	return nil
}

func testLifecycle(t *testing.T, w World) {
	fab := w.NewFabric(t)
	provider, pb := fab.NewPeer(t)
	consumer, _ := fab.NewPeer(t)
	ctx := context.Background()

	dep, err := provider.Server().DeployAndPublish(ctx, conformanceDef("Conformance"))
	if err != nil {
		t.Fatal(err)
	}
	scheme := transport.SchemeOf(dep.Endpoint)
	if !containsString(pb.Schemes(), scheme) {
		t.Fatalf("deployed endpoint %q has scheme %q, not among binding schemes %v",
			dep.Endpoint, scheme, pb.Schemes())
	}

	info := locateWithRetry(t, w, consumer, "Conformance")
	if info.Definitions == nil || info.Definitions.Operation("echoString") == nil {
		t.Fatal("locator did not deliver usable definitions")
	}
	if info.Locator == "" {
		t.Fatal("located info does not name its locator")
	}

	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "conf"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := res.String("return"); err != nil || got != "echo:conf" {
		t.Fatalf("echoString = %q, %v", got, err)
	}

	// Faults travel as SOAP faults, whatever the substrate.
	_, err = inv.Invoke(ctx, "fail")
	var f *soap.Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "intentional") {
		t.Fatalf("fault did not round-trip: %v", err)
	}

	// One-way operations return no result and no error.
	if res, err := inv.Invoke(ctx, "notify", engine.P("msg", "fire-and-forget")); err != nil || res != nil {
		t.Fatalf("one-way = %v, %v", res, err)
	}

	// Undeploy unpublishes everywhere; the service stops being locatable.
	if err := provider.Server().Undeploy(ctx, "Conformance"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(w.LocateDeadline)
	for {
		_, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: "Conformance"})
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service still locatable after Undeploy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testAttachIdempotent(t *testing.T, w World) {
	fab := w.NewFabric(t)
	p, b := fab.NewPeer(t)

	locators := len(p.Client().Locators())
	names := len(p.Bindings())

	// Re-attaching — directly or through the peer — must not accumulate
	// components or registrations.
	if err := b.Attach(p); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachBinding(b); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Client().Locators()); got != locators {
		t.Fatalf("locators after re-attach = %d, want %d", got, locators)
	}
	if got := len(p.Bindings()); got != names {
		t.Fatalf("bindings after re-attach = %d, want %d", got, names)
	}
	if p.Binding(b.Name()) == nil {
		t.Fatalf("binding %q not registered on peer", b.Name())
	}
}

func testDetachRemovesComponents(t *testing.T, w World) {
	fab := w.NewFabric(t)
	p, b := fab.NewPeer(t)
	ctx := context.Background()

	if err := p.DetachBinding(b); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Bindings()); got != 0 {
		t.Fatalf("bindings after detach = %d", got)
	}
	if got := len(p.Client().Locators()); got != 0 {
		t.Fatalf("locators after detach = %d", got)
	}
	if _, err := p.Server().Deploy(conformanceDef("Detached")); !errors.Is(err, core.ErrNoDeployer) {
		t.Fatalf("deploy after detach = %v, want ErrNoDeployer", err)
	}
	endpoint := b.Schemes()[0] + "://nowhere/Detached"
	if _, err := p.Client().NewInvocation(&core.ServiceInfo{Name: "Detached", Endpoint: endpoint}); err == nil {
		t.Fatalf("invoker for scheme %q survived detach", b.Schemes()[0])
	}

	// Re-attach restores full function.
	if err := p.AttachBinding(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Server().DeployAndPublish(ctx, conformanceDef("Reattached")); err != nil {
		t.Fatalf("deploy after re-attach: %v", err)
	}
	info := locateWithRetry(t, w, p, "Reattached")
	inv, err := p.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := inv.Invoke(ctx, "echoString", engine.P("msg", "back")); err != nil {
		t.Fatal(err)
	} else if got, _ := res.String("return"); got != "echo:back" {
		t.Fatalf("invoke after re-attach = %q", got)
	}
}

func testCloseDrainsInFlight(t *testing.T, w World) {
	fab := w.NewFabric(t)
	provider, pb := fab.NewPeer(t)
	consumer, _ := fab.NewPeer(t)
	ctx := context.Background()

	if _, err := provider.Server().DeployAndPublish(ctx, conformanceDef("Draining")); err != nil {
		t.Fatal(err)
	}
	info := locateWithRetry(t, w, consumer, "Draining")
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		got string
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := inv.Invoke(ctx, "slow", engine.P("msg", "drain"))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		got, err := res.String("return")
		done <- outcome{got: got, err: err}
	}()

	// Close while the slow call is in flight: the binding must drain it,
	// not sever it.
	time.Sleep(50 * time.Millisecond)
	if err := pb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case o := <-done:
		if o.err != nil || o.got != "slow:drain" {
			t.Fatalf("in-flight invoke after close = %q, %v", o.got, o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight invoke never completed")
	}

	// Close is idempotent.
	if err := pb.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
