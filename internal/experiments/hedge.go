package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
)

// HedgeRow is one R2 measurement: tail latency over a bimodal-latency
// service with or without hedged invocations.
type HedgeRow struct {
	Hedged bool
	Calls  int
	P50    time.Duration
	P99    time.Duration
	Mean   time.Duration
	// Hedges is how many hedge attempts launched (0 for the unhedged
	// stack).
	Hedges int64
}

// bimodalDelay produces seeded, reproducible bimodal latency: most calls
// take fast, a slowFraction of them take slow — the canonical shape
// hedging exists for (a straggling tail on an otherwise fast service).
type bimodalDelay struct {
	mu           sync.Mutex
	rng          *rand.Rand
	fast, slow   time.Duration
	slowFraction float64
}

func (b *bimodalDelay) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng.Float64() < b.slowFraction {
		return b.slow
	}
	return b.fast
}

// RunHedgeSweep measures R2: `calls` invocations of a service whose
// replicas answer with bimodal latency (90% fast, 10% straggling), once
// through a plain invocation and once through a hedged invocation that
// races the second replica when the primary passes the hedge threshold.
// The hedged stack should collapse the p99 toward the fast mode at the
// cost of a small fraction of duplicate calls.
func RunHedgeSweep(seed int64, calls int) ([]HedgeRow, error) {
	var rows []HedgeRow
	for _, hedged := range []bool{false, true} {
		row, err := runHedgeCell(seed, calls, hedged)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runHedgeCell(seed int64, calls int, hedged bool) (*HedgeRow, error) {
	const (
		fastMode     = 200 * time.Microsecond
		slowMode     = 20 * time.Millisecond
		slowFraction = 0.10
		threshold    = 2 * time.Millisecond
	)
	endpoints := []string{"mem://a/Echo", "mem://b/Echo"}

	eng := engine.New()
	if _, err := eng.Deploy(engine.ServiceDef{
		Name: "Echo",
		Operations: []engine.OperationDef{{
			Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"},
		}},
	}); err != nil {
		return nil, err
	}

	netw := transport.NewInMemNetwork()
	for i, ep := range endpoints {
		delay := &bimodalDelay{
			rng:  rand.New(rand.NewSource(seed + int64(i))),
			fast: fastMode, slow: slowMode, slowFraction: slowFraction,
		}
		netw.Register(ep, transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
			select {
			case <-time.After(delay.next()):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return eng.ServeRequest(ctx, "Echo", req)
		}))
	}

	reg := transport.NewRegistry()
	reg.Register(netw.Transport())
	stubs := make(map[string]*engine.Stub, len(endpoints))
	for _, ep := range endpoints {
		defs, err := eng.Service("Echo").WSDL(wsdl.TransportHTTP, ep)
		if err != nil {
			return nil, err
		}
		stubs[ep] = engine.NewStub(defs, reg)
	}

	peer := core.NewPeer()
	peer.Client().RegisterInvoker(&memInvoker{stubs: stubs})

	infos := make([]*core.ServiceInfo, len(endpoints))
	for i, ep := range endpoints {
		infos[i] = &core.ServiceInfo{Name: "Echo", Endpoint: ep}
	}
	var inv *core.Invocation
	var err error
	if hedged {
		// Two hedges: with 10% stragglers per replica, ~1% of calls
		// straggle on both of the first two attempts — right at the p99
		// boundary for 200 calls — so a third attempt is what actually
		// collapses the p99.
		inv, err = peer.Client().NewInvocation(infos...)
		if err == nil {
			inv = inv.WithHedging(core.HedgeOptions{Threshold: threshold, MaxHedges: 2})
		}
	} else {
		inv, err = peer.Client().NewInvocation(infos[0])
	}
	if err != nil {
		return nil, err
	}

	mLaunched := telemetry.Default().Meter.Counter("pipeline.hedge.launched")
	launched0 := mLaunched.Value()
	ctx := context.Background()
	latencies := make([]time.Duration, 0, calls)
	for i := 0; i < calls; i++ {
		start := time.Now()
		if _, err := inv.Invoke(ctx, "echo", engine.P("msg", "x")); err != nil {
			return nil, fmt.Errorf("experiments: hedge cell call %d: %w", i, err)
		}
		latencies = append(latencies, time.Since(start))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	return &HedgeRow{
		Hedged: hedged,
		Calls:  calls,
		P50:    latencies[len(latencies)/2],
		P99:    latencies[(len(latencies)*99)/100],
		Mean:   sum / time.Duration(len(latencies)),
		Hedges: mLaunched.Value() - launched0,
	}, nil
}

// HedgeTable renders R2.
func HedgeTable(rows []HedgeRow) *Table {
	t := &Table{
		ID:      "R2",
		Title:   "hedging: tail latency over a bimodal (10% straggler) service",
		Columns: []string{"stack", "calls", "p50", "p99", "mean", "hedges launched"},
		Notes: []string{
			"two replicas, 90% of calls ~200µs, 10% ~20ms; hedge threshold 2ms",
			"shape check: hedging collapses p99 toward the fast mode for ~10% duplicate calls",
		},
	}
	for _, r := range rows {
		stack := "plain"
		if r.Hedged {
			stack = "hedged"
		}
		t.Rows = append(t.Rows, []string{
			stack, fmt.Sprint(r.Calls),
			r.P50.String(), r.P99.String(), r.Mean.String(),
			fmt.Sprint(r.Hedges),
		})
	}
	return t
}
