package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/transport"
)

// The traced run attributes each op's time to the repo's layers from the
// outside: every stamp below is taken in a hook the program already
// offers (Client.Use, Engine.Use, Engine.AddInHandler/AddOutHandler, a
// wrapping transport.Transport or p2ps.Transport, the service function),
// so the program itself runs unmodified.

var clockBase = time.Now()

// now is a monotonic timestamp in nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

// Per-op segments, each a self time in nanoseconds. A workload fills the
// ones on its path and leaves the rest at absent.
const (
	segInvokeSelf = iota // Invocation.Invoke minus the innermost Client.Use interceptor
	segEncode            // innermost client interceptor start -> transport.Call start
	segTransport         // transport.Call minus the server Engine.Use span
	segParse             // server Engine.Use start -> in-handler
	segDispatch          // in-handler -> handler start, plus handler end -> out-handler
	segHandler           // the service function
	segRender            // out-handler -> server Engine.Use end
	segDecode            // transport.Call end -> innermost client interceptor end
	segResult            // op time outside Invocation.Invoke: Result.Decode and the output check
	segPresend           // terminal start -> first request frame Send (p2ps)
	segWait              // request frame Send -> reply frame delivered (p2ps)
	segPostrecv          // reply frame delivered -> terminal end (p2ps)
	segDeploy            // lifecycle steps, each timed around its call
	segPublish
	segLocate
	segInvokeCold
	segUndeploy
	nSeg
)

const absent = -1

var segNames = [nSeg]string{
	segInvokeSelf: "core.invoke.self_us",
	segEncode:     "engine.encode_us",
	segTransport:  "transport.call.self_us",
	segParse:      "engine.parse_us",
	segDispatch:   "engine.dispatch_us",
	segHandler:    "engine.handler_us",
	segRender:     "engine.render_us",
	segDecode:     "engine.decode_us",
	segResult:     "engine.result_decode_us",
	segPresend:    "p2psbind.presend_us",
	segWait:       "p2psbind.wait_us",
	segPostrecv:   "p2psbind.postrecv_us",
	segDeploy:     "core.deploy_us",
	segPublish:    "core.publish_us",
	segLocate:     "core.locate_us",
	segInvokeCold: "core.invoke_cold_us",
	segUndeploy:   "core.undeploy_us",
}

// opTrace holds one caller's stamps for its in-flight op. Each caller owns
// one and reuses it; fields are atomic because transport read loops stamp
// the reply concurrently with the caller.
type opTrace struct {
	opStart, opEnd   atomic.Int64 // the whole op, as the harness times it
	invStart, invEnd atomic.Int64 // around Invocation.Invoke
	icStart, icEnd   atomic.Int64 // innermost Client.Use interceptor
	tcStart, tcEnd   atomic.Int64 // first wrapped transport.Call of the op
	firstSend        atomic.Int64 // first p2ps frame Send of the op
	replyRecv        atomic.Int64 // first p2ps frame delivered after it
	// key names the op's payload so the server-side record can be found.
	key string
	// steps are the lifecycle step durations, absent elsewhere.
	steps [nSeg]int64
}

// newRec returns a caller's op record in the traced run, nil otherwise.
func newRec(tr *tracer) *opTrace {
	if tr == nil {
		return nil
	}
	return &opTrace{}
}

// begin, invoking, invoked and end stamp an op's outline; on the nil
// record of an untraced caller they do nothing.
func (r *opTrace) begin(key string) {
	if r != nil {
		r.reset(key)
		r.opStart.Store(now())
	}
}

func (r *opTrace) invoking() {
	if r != nil {
		r.invStart.Store(now())
	}
}

func (r *opTrace) invoked() {
	if r != nil {
		r.invEnd.Store(now())
	}
}

func (r *opTrace) end() {
	if r != nil {
		r.opEnd.Store(now())
	}
}

func (r *opTrace) reset(key string) {
	for _, a := range []*atomic.Int64{&r.opStart, &r.opEnd, &r.invStart, &r.invEnd, &r.icStart, &r.icEnd, &r.tcStart, &r.tcEnd, &r.firstSend, &r.replyRecv} {
		a.Store(0)
	}
	r.key = key
	for i := range r.steps {
		r.steps[i] = absent
	}
}

// srvTrace holds the stamps of one server dispatch.
type srvTrace struct {
	useStart, inH, hStart, hEnd, outH, useEnd int64
	key                                       string
}

type recKey struct{}
type srvKey struct{}

// tracer collects every traced op's segments and owns the hooks.
type tracer struct {
	mu   sync.Mutex
	srv  map[string]*srvTrace // completed dispatches by payload key
	segs [][nSeg]int64        // one row per completed op

	frames, frameBytes, sendNS atomic.Int64 // p2ps Send calls in every wrapped transport

	// service and request are the first request the provider received,
	// kept for the codec replays.
	service string
	request []byte
}

func newTracer() *tracer {
	return &tracer{srv: make(map[string]*srvTrace)}
}

// resetCounts drops what the warm-up recorded, so segments and frame
// counts cover the measured phase only.
func (t *tracer) resetCounts() {
	t.mu.Lock()
	t.segs = t.segs[:0]
	t.mu.Unlock()
	t.frames.Store(0)
	t.frameBytes.Store(0)
	t.sendNS.Store(0)
}

// withRec returns ctx carrying the caller's op record, where the client
// interceptor and the wrapped transport find it.
func withRec(ctx context.Context, r *opTrace) context.Context {
	return context.WithValue(ctx, recKey{}, r)
}

func recFrom(ctx context.Context) *opTrace {
	r, _ := ctx.Value(recKey{}).(*opTrace)
	return r
}

// clientInterceptor is installed last with Client.Use, so it is the
// innermost interceptor: its span is the invoker terminal.
func (t *tracer) clientInterceptor() pipeline.Interceptor {
	return func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(c *pipeline.Call) error {
			r := recFrom(c.Ctx)
			if r == nil {
				return next(c)
			}
			r.icStart.Store(now())
			err := next(c)
			r.icEnd.Store(now())
			return err
		}
	}
}

// serverInterceptor is installed last with Engine.Use: its span is the
// engine's parse/dispatch/render terminal. It threads a srvTrace through
// the dispatch context to the chain handlers and the service function,
// captures the first request for the codec replays, and publishes the
// finished record under the payload key the service function saw.
func (t *tracer) serverInterceptor() pipeline.Interceptor {
	return func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(c *pipeline.Call) error {
			st := &srvTrace{useStart: now()}
			orig := c.Ctx
			c.Ctx = context.WithValue(orig, srvKey{}, st)
			err := next(c)
			c.Ctx = orig
			st.useEnd = now()
			t.mu.Lock()
			if t.request == nil && c.Request != nil {
				t.service, t.request = c.Service, bytes.Clone(c.Request.Body)
			}
			if st.key != "" {
				t.srv[st.key] = st
			}
			t.mu.Unlock()
			return err
		}
	}
}

func srvFrom(ctx context.Context) *srvTrace {
	st, _ := ctx.Value(srvKey{}).(*srvTrace)
	return st
}

// install adds the server hooks to eng: the Engine.Use interceptor and the
// in/out chain handlers that stamp the dispatch seams.
func (t *tracer) install(eng *engine.Engine) {
	eng.Use(t.serverInterceptor())
	eng.AddInHandler(engine.ChainFunc{ChainName: "perfbench-in", Func: func(mc *engine.MessageContext) error {
		if st := srvFrom(mc.Ctx); st != nil {
			st.inH = now()
		}
		return nil
	}})
	eng.AddOutHandler(engine.ChainFunc{ChainName: "perfbench-out", Func: func(mc *engine.MessageContext) error {
		if st := srvFrom(mc.Ctx); st != nil {
			st.outH = now()
		}
		return nil
	}})
}

// handlerEnter and handlerExit bracket the service function in the traced
// run; key is the payload the client will look the record up by.
func handlerEnter(ctx context.Context, key string) *srvTrace {
	st := srvFrom(ctx)
	if st != nil {
		st.hStart, st.key = now(), key
	}
	return st
}

func handlerExit(st *srvTrace) {
	if st != nil {
		st.hEnd = now()
	}
}

// takeServer waits for the dispatch record published under key. The
// engine may hand the reply to the wire before the Engine.Use span ends
// (P2PS replies travel from inside the dispatch), so the caller can get
// here first.
func (t *tracer) takeServer(key string) *srvTrace {
	deadline := time.Now().Add(time.Second)
	for {
		t.mu.Lock()
		st := t.srv[key]
		delete(t.srv, key)
		t.mu.Unlock()
		if st != nil || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// finish folds one completed op into per-layer segments. Frame stamps
// exist only on a P2PS consumer, so they select the pipe split.
func (t *tracer) finish(r *opTrace) {
	var s [nSeg]int64
	for i := range s {
		s[i] = absent
	}
	copy(s[segDeploy:], r.steps[segDeploy:])
	invStart, invEnd := r.invStart.Load(), r.invEnd.Load()
	icStart, icEnd := r.icStart.Load(), r.icEnd.Load()
	if invEnd > 0 && icEnd > 0 {
		s[segInvokeSelf] = (invEnd - invStart) - (icEnd - icStart)
		if opStart, opEnd := r.opStart.Load(), r.opEnd.Load(); opEnd > 0 {
			s[segResult] = (invStart - opStart) + (opEnd - invEnd)
		}
		var st *srvTrace
		if r.key != "" {
			st = t.takeServer(r.key)
		}
		var srvSpan int64
		if st != nil && st.inH > 0 && st.outH > 0 && st.hEnd > 0 {
			srvSpan = st.useEnd - st.useStart
			s[segParse] = st.inH - st.useStart
			s[segDispatch] = (st.hStart - st.inH) + (st.outH - st.hEnd)
			s[segHandler] = st.hEnd - st.hStart
			s[segRender] = st.useEnd - st.outH
		}
		if tcStart, tcEnd := r.tcStart.Load(), r.tcEnd.Load(); tcEnd > 0 {
			s[segEncode] = tcStart - icStart
			s[segTransport] = (tcEnd - tcStart) - srvSpan
			s[segDecode] = icEnd - tcEnd
		}
		if fs, rr := r.firstSend.Load(), r.replyRecv.Load(); fs > 0 && rr > fs {
			s[segPresend] = fs - icStart
			s[segWait] = rr - fs
			s[segPostrecv] = icEnd - rr
		}
	}
	t.mu.Lock()
	t.segs = append(t.segs, s)
	t.mu.Unlock()
}

// segMedians returns each segment's median over the ops that have it, in
// microseconds (0 where no op had the segment).
func (t *tracer) segMedians() [nSeg]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [nSeg]float64
	vals := make([]float64, 0, len(t.segs))
	for i := 0; i < nSeg; i++ {
		vals = vals[:0]
		for _, s := range t.segs {
			if s[i] != absent {
				vals = append(vals, float64(s[i])/1e3)
			}
		}
		out[i] = median(vals)
	}
	return out
}

// timedTransport wraps a client transport.Transport and stamps the first
// Call of each traced op (UDDI and WSDL traffic carries no op record and
// passes straight through).
type timedTransport struct {
	inner transport.Transport
}

func (w timedTransport) Scheme() string { return w.inner.Scheme() }

func (w timedTransport) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	r := recFrom(ctx)
	if r == nil || r.tcStart.Load() != 0 {
		return w.inner.Call(ctx, req)
	}
	r.tcStart.Store(now())
	resp, err := w.inner.Call(ctx, req)
	r.tcEnd.Store(now())
	return resp, err
}

// timedPipes wraps a p2ps.Transport: it counts every frame sent and the
// time spent in Send, and, on a consumer's transport, stamps the op's
// first request frame and the first frame delivered after it. Each
// consumer peer serves exactly one caller, so every frame it moves
// belongs to that caller's in-flight op.
type timedPipes struct {
	p2ps.Transport
	t   *tracer
	own *opTrace // nil on the rendezvous and the provider
}

func (w *timedPipes) Send(to string, data []byte) error {
	t0 := now()
	err := w.Transport.Send(to, data)
	w.t.sendNS.Add(now() - t0)
	w.t.frames.Add(1)
	w.t.frameBytes.Add(int64(len(data)))
	if w.own != nil {
		w.own.firstSend.CompareAndSwap(0, t0)
	}
	return err
}

func (w *timedPipes) SetReceiver(fn func(from string, data []byte)) {
	w.Transport.SetReceiver(func(from string, data []byte) {
		if w.own != nil && w.own.firstSend.Load() != 0 {
			w.own.replyRecv.CompareAndSwap(0, now())
		}
		fn(from, data)
	})
}
