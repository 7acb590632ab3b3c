package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/wsaddr"
)

// metaInvoker records the exchange pattern and headers stamped on the
// last call it carried.
type metaInvoker struct {
	pattern any
	headers *wsaddr.MessageHeaders
}

func (m *metaInvoker) Schemes() []string { return []string{"http"} }
func (m *metaInvoker) Invoke(ctx context.Context, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	return &engine.Result{}, nil
}
func (m *metaInvoker) InvokeCall(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	m.pattern = c.GetMeta(exchange.MetaPattern)
	m.headers, _ = c.GetMeta(exchange.MetaHeaders).(*wsaddr.MessageHeaders)
	return &engine.Result{}, nil
}

// TestWithExchange checks both exchange options reach the client: the
// request/response stamping on plain Invoke and the correlation table's
// capacity.
func TestWithExchange(t *testing.T) {
	for _, stamp := range []bool{false, true} {
		p := NewPeer(WithExchange(ExchangeOptions{
			Table:                exchange.TableOptions{Capacity: 1},
			StampRequestResponse: stamp,
		}))
		mi := &metaInvoker{}
		p.Client().RegisterInvoker(mi)
		inv, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inv.Invoke(context.Background(), "op"); err != nil {
			t.Fatal(err)
		}
		if !stamp && (mi.pattern != nil || mi.headers != nil) {
			t.Fatalf("unstamped client stamped %v %+v", mi.pattern, mi.headers)
		}
		if stamp && (mi.pattern != exchange.RequestResponse || mi.headers == nil || mi.headers.MessageID == "") {
			t.Fatalf("stamped client sent pattern %v headers %+v", mi.pattern, mi.headers)
		}

		table := p.Client().exchangeTable()
		if _, err := table.Register("first", time.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := table.Register("second", time.Minute); !errors.Is(err, exchange.ErrTableFull) {
			t.Fatalf("second registration at capacity 1: err = %v, want ErrTableFull", err)
		}
		p.Client().CloseExchange()
	}
}

func TestWithHedgingReturnsHedgedCopy(t *testing.T) {
	p := NewPeer()
	p.Client().RegisterInvoker(&fakeInvoker{schemes: []string{"http"}, result: &engine.Result{}})
	plain, err := p.Client().NewInvocation(&ServiceInfo{Name: "E", Endpoint: "http://h/E"})
	if err != nil {
		t.Fatal(err)
	}
	hedged := plain.WithHedging(HedgeOptions{Threshold: time.Millisecond})
	if plain.hedge != nil {
		t.Fatal("WithHedging changed its receiver")
	}
	if hedged.hedge == nil || hedged.hedge.Threshold != time.Millisecond || hedged.hedge.MaxHedges != 1 {
		t.Fatalf("hedge plan = %+v, want 1ms threshold and the default single hedge", hedged.hedge)
	}
	if _, err := p.Client().NewInvocation(); err == nil {
		t.Fatal("invocation bound to no service")
	}
}
