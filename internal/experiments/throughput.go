package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wspeer"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
)

// The throughput experiments (A4) measure the resolution cache and the
// bounded invocation scheduler in calls per second — the axis the
// allocation benchmarks (A3) don't see. Two workloads:
//
//   - Locate: a live UDDI inquiry over HTTP versus the same query served
//     by the per-client resolution cache.
//   - Invoke: a 100-call burst against a service with 1ms simulated
//     service time, run sequentially versus scattered through
//     InvokeMany on the bounded scheduler. The simulated service time
//     models a remote peer; on loopback the burst is pure CPU and a
//     scatter cannot beat a single core.

// ThroughputResult is one throughput measurement, JSON-stable so the
// bench trajectory files can track calls/sec across runs.
type ThroughputResult struct {
	Name string `json:"name"`
	// N is the number of measured iterations (testing.Benchmark's b.N).
	N int `json:"n"`
	// NsPerOp is wall time per iteration; one iteration makes
	// CallsPerOp calls.
	NsPerOp float64 `json:"ns_per_op"`
	// CallsPerOp is how many service calls (or resolutions) one
	// iteration performs.
	CallsPerOp int `json:"calls_per_op"`
	// CallsPerSec is the sustained rate: CallsPerOp / (NsPerOp in s).
	CallsPerSec float64 `json:"calls_per_sec"`
}

func toThroughput(name string, callsPerOp int, r testing.BenchmarkResult) ThroughputResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return ThroughputResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     ns,
		CallsPerOp:  callsPerOp,
		CallsPerSec: float64(callsPerOp) * 1e9 / ns,
	}
}

// RunThroughput measures resolution and scatter throughput in-process.
// Each closure mirrors the corresponding E12 benchmark in bench_test.go.
func RunThroughput() ([]ThroughputResult, error) {
	var out []ThroughputResult
	var setupErr error

	// Locate, uncached vs cached, against a live UDDI-over-HTTP registry.
	{
		registryHost := httpd.New(engine.New(), httpd.Options{})
		registryURL, err := registryHost.Deploy(wspeer.UDDIServiceDef(wspeer.NewUDDIRegistry()))
		if err != nil {
			registryHost.Close()
			return nil, err
		}
		// The cache is configured from the start: the uncached run below
		// calls Locate, which never consults it.
		peer := wspeer.NewPeer(wspeer.WithResolutionCache(wspeer.ResolutionCacheOptions{TTL: time.Hour}))
		binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
		if err != nil {
			registryHost.Close()
			return nil, err
		}
		binding.Attach(peer)
		if _, err := peer.Server().DeployAndPublish(context.Background(), allocEchoDef()); err != nil {
			binding.Close()
			registryHost.Close()
			return nil, err
		}
		ctx := context.Background()
		q := wspeer.NameQuery{Name: "Echo"}

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if infos, err := peer.Client().Locate(ctx, q); err != nil || len(infos) == 0 {
					setupErr = fmt.Errorf("locate: %v %v", infos, err)
					b.FailNow()
				}
			}
		})
		if setupErr == nil {
			out = append(out, toThroughput("LocateUncached", 1, r))
			r = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if infos, err := peer.Client().LocateCached(ctx, q); err != nil || len(infos) == 0 {
						setupErr = fmt.Errorf("locate cached: %v %v", infos, err)
						b.FailNow()
					}
				}
			})
			if setupErr == nil {
				out = append(out, toThroughput("LocateCached", 1, r))
			}
		}
		binding.Close()
		registryHost.Close()
		if setupErr != nil {
			return nil, setupErr
		}
	}

	// 100-call burst, sequential vs scattered, 1ms simulated service time.
	{
		const burst = 100
		const serviceTime = time.Millisecond
		peer := wspeer.NewPeer(wspeer.WithScheduler(wspeer.SchedulerOptions{MaxConcurrent: 32, MaxQueue: 256}))
		binding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{})
		if err != nil {
			return nil, err
		}
		binding.Attach(peer)
		def := allocEchoDef()
		def.Operations[0].Func = func(s string) string {
			time.Sleep(serviceTime)
			return s
		}
		dep, err := peer.Server().Deploy(def)
		if err != nil {
			binding.Close()
			return nil, err
		}
		svcs := make([]*wspeer.ServiceInfo, burst)
		for i := range svcs {
			svcs[i] = &wspeer.ServiceInfo{Name: "Echo", Endpoint: dep.Endpoint, Definitions: dep.Definitions}
		}
		ctx := context.Background()

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, svc := range svcs {
					inv, err := peer.Client().NewInvocation(svc)
					if err != nil {
						setupErr = err
						b.FailNow()
					}
					if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
						setupErr = err
						b.FailNow()
					}
				}
			}
		})
		if setupErr == nil {
			out = append(out, toThroughput("InvokeSequential100", burst, r))
			r = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, mr := range peer.Client().InvokeMany(ctx, svcs, "echo", []wspeer.Param{wspeer.P("msg", "x")}) {
						if mr.Err != nil {
							setupErr = mr.Err
							b.FailNow()
						}
					}
				}
			})
			if setupErr == nil {
				out = append(out, toThroughput("InvokeMany100", burst, r))
			}
		}
		binding.Close()
		if setupErr != nil {
			return nil, setupErr
		}
	}

	return out, nil
}

// ThroughputTable renders the throughput measurements.
func ThroughputTable(rs []ThroughputResult) *Table {
	t := &Table{
		ID:      "A4",
		Title:   "resolution cache and scheduler throughput: calls per second",
		Columns: []string{"workload", "calls/op", "ns/op", "calls/sec"},
		Notes: []string{
			"Invoke* workloads run against 1ms simulated service time (remote-peer regime)",
			"measured in-process via testing.Benchmark",
		},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.CallsPerOp),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.CallsPerSec),
		})
	}
	return t
}
