package wspeer_test

// Chaos tests for the cooperative overload-control layer (DESIGN.md §14):
// retry budgets bounding a retry storm against a faulty endpoint, and
// cross-wire deadline propagation dropping caller-expired requests before
// dispatch. Run them in isolation with `make chaos`.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/engine"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// stormCalls is the offered load of one retry-storm round.
const stormCalls = 100

// runRetryStorm drives stormCalls logical invocations against an HTTP
// endpoint failing 30% of calls (seeded injector), with an
// always-retryable Retry installed, and reports how many attempts
// actually hit the wire. With budgeted=true the client carries a retry
// budget; without, retries are unbounded by anything but Attempts.
func runRetryStorm(t *testing.T, budgeted bool) (attempts int64, failures int) {
	t.Helper()
	ctx := context.Background()

	provider := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hb.Attach(provider)
	defer hb.Close()
	dep, err := provider.Server().Deploy(wspeer.ServiceDef{
		Name: "Echo",
		Operations: []wspeer.OperationDef{{
			Name:       "echo",
			Func:       func(s string) string { return s },
			ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	injector := wspeer.NewFaultInjector(chaosSeed)
	injector.SetPlans(wspeer.FaultPlan{Endpoint: dep.Endpoint, ErrorRate: 0.3})
	reg := transport.NewRegistry()
	reg.Register(injector.Transport(transport.NewHTTPTransport()))

	var opts []wspeer.PeerOption
	if budgeted {
		opts = append(opts, wspeer.WithRetryBudget(wspeer.RetryBudgetOptions{
			Floor: 3, Cap: 10, Ratio: 0.1,
		}))
	}
	consumer := wspeer.NewPeer(opts...)
	chb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	chb.Attach(consumer)
	defer chb.Close()
	consumer.Client().Use(wspeer.Retry(wspeer.RetryOptions{
		Attempts:  4,
		BaseDelay: time.Millisecond,
		Retryable: func(c *wspeer.PipelineCall, err error) bool { return true },
	}))

	inv, err := consumer.Client().NewInvocation(&wspeer.ServiceInfo{
		Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions,
	})
	if err != nil {
		t.Fatal(err)
	}

	mAttempts := telemetry.Default().Meter.Counter("pipeline.retry.attempts")
	before := mAttempts.Value()
	for i := 0; i < stormCalls; i++ {
		if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "m")); err != nil {
			failures++
		}
	}
	return mAttempts.Value() - before, failures
}

// TestChaosRetryStorm is the acceptance check for retry budgets: under
// 30% faults, a budgeted client keeps wire attempts within ~1.2× the
// offered load while the unbudgeted client multiplies it well beyond.
func TestChaosRetryStorm(t *testing.T) {
	unbounded, _ := runRetryStorm(t, false)
	budgeted, _ := runRetryStorm(t, true)

	// Unbudgeted, 30% faults and 4 attempts multiply ~100 calls into
	// ~140 attempts (1 + 0.3 + 0.09 + 0.027 per call).
	if unbounded < 125 {
		t.Fatalf("unbudgeted storm sent %d attempts for %d calls; expected amplification ≥ 125", unbounded, stormCalls)
	}
	// Budgeted: floor 3 + 0.1 credit per success bounds total retries to
	// ~13, so attempts stay within ~1.2× the offered load.
	limit := int64(float64(stormCalls) * 1.2)
	if budgeted > limit {
		t.Fatalf("budgeted storm sent %d attempts for %d calls; budget should bound it to ≤ %d", budgeted, stormCalls, limit)
	}
	if budgeted >= unbounded {
		t.Fatalf("budget did not reduce attempts: %d budgeted vs %d unbudgeted", budgeted, unbounded)
	}
	t.Logf("offered=%d attempts: unbudgeted=%d budgeted=%d", stormCalls, unbounded, budgeted)
}

// TestChaosDeadlinePropagation is the acceptance check for cross-wire
// deadline propagation: a request whose caller deadline has already
// expired is dropped by the engine before dispatch (the handler never
// runs), while a live deadline is carried into the handler's context.
func TestChaosDeadlinePropagation(t *testing.T) {
	provider := wspeer.NewPeer()
	hb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hb.Attach(provider)
	defer hb.Close()

	var dispatched atomic.Int64
	dep, err := provider.Server().Deploy(wspeer.ServiceDef{
		Name: "Echo",
		Operations: []wspeer.OperationDef{{
			Name: "echo",
			Func: func(s string) string {
				dispatched.Add(1)
				return s
			},
			ParamNames: []string{"msg"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	stub := engine.NewStub(dep.Definitions, nil)
	req, _, err := stub.BuildRequest("echo", engine.P("msg", "m"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(deadline time.Time) *http.Response {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, dep.Endpoint, bytes.NewReader(req.Body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", req.ContentType)
		hr.Header.Set("SOAPAction", `"`+req.Action+`"`)
		hr.Header.Set(transport.DeadlineHeader, transport.FormatDeadline(deadline))
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	mCarried := telemetry.Default().Meter.Counter("engine.deadline.carried")
	mDropped := telemetry.Default().Meter.Counter("engine.deadline.dropped")
	carried0, dropped0 := mCarried.Value(), mDropped.Value()

	// A request whose caller already gave up: dropped before dispatch.
	resp := post(time.Now().Add(-time.Second))
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("expired-deadline request answered %d, want a fault status", resp.StatusCode)
	}
	if got := dispatched.Load(); got != 0 {
		t.Fatalf("caller-expired request reached the handler %d time(s); want zero dispatches", got)
	}
	if got := mDropped.Value() - dropped0; got != 1 {
		t.Fatalf("engine.deadline.dropped delta = %d, want 1", got)
	}

	// A live deadline: carried into dispatch, the handler runs.
	resp = post(time.Now().Add(30 * time.Second))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-deadline request answered %d: %s", resp.StatusCode, body)
	}
	if got := dispatched.Load(); got != 1 {
		t.Fatalf("live-deadline request dispatched %d time(s), want 1", got)
	}
	if got := mCarried.Value() - carried0; got != 2 {
		t.Fatalf("engine.deadline.carried delta = %d, want 2 (both requests carried deadlines)", got)
	}

	// The client invoke path stamps the header from its context deadline:
	// an end-to-end call with a live ctx deadline also counts as carried.
	consumer := wspeer.NewPeer()
	chb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chb.Attach(consumer)
	defer chb.Close()
	inv, err := consumer.Client().NewInvocation(&wspeer.ServiceInfo{
		Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "m")); err != nil {
		t.Fatalf("end-to-end deadline-carrying invoke: %v", err)
	}
	if got := mCarried.Value() - carried0; got != 3 {
		t.Fatalf("engine.deadline.carried delta after client invoke = %d, want 3", got)
	}
}
