package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wspeer/internal/binding/httpbind"
	"wspeer/internal/binding/inmembind"
	"wspeer/internal/binding/p2psbind"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
	"wspeer/internal/p2ps"
	"wspeer/internal/transport"
	"wspeer/internal/uddi"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// callers is the closed-loop client count of every workload: Invoke is
// synchronous, so one caller keeps one op in flight. On a two-core
// machine shared with other tenants, a second caller made the figures
// track the host's load rather than the program: two callers saturate
// both cores and leave the garbage collector and the server side of each
// call to queue behind them.
const callers = 1

// Sizes of the seeded inputs.
const (
	echoBytes     = 16   // http-small and p2ps-tcp payload
	docRecords    = 128  // records per inmem-doc request
	echoPool      = 4096 // distinct echo inputs per caller, cycled
	docPool       = 16   // distinct documents per caller, cycled
	fillerRecords = 64   // registry records present before lifecycle starts
)

var errMismatch = errors.New("output does not match the seeded input")

// The segments that tile an op on each kind of path. On P2PS the
// provider's engine segments happen inside the pipe wait, so they are not
// added again.
var (
	tilesCall      = []int{segResult, segInvokeSelf, segEncode, segTransport, segParse, segDispatch, segHandler, segRender, segDecode}
	tilesPipe      = []int{segResult, segInvokeSelf, segPresend, segWait, segPostrecv}
	tilesLifecycle = []int{segDeploy, segPublish, segLocate, segInvokeCold, segUndeploy}
)

// rig is one workload's running system: the peers and bindings it set up
// and one closed-loop caller per client.
type rig struct {
	callers []caller
	close   func()
	// tr is non-nil in the traced run.
	tr *tracer
	// tiles lists the segments that together cover one op, the ones
	// trace.layer_sum_ratio adds up.
	tiles []int
	// replay describes the captured messages' service for the codec
	// replays.
	replay replaySpec
}

type replaySpec struct {
	def    func(name string) engine.ServiceDef
	op     string
	params []engine.Param
	// result is the value the operation returns for params.
	result interface{}
	// extra runs the workload's own replays (lifecycle: WSDL generation
	// and registry find) into out.
	extra func(out map[string]float64)
}

type workload struct {
	name  string
	setup func(seed int64, traced bool) (*rig, error)
}

var workloads = []workload{
	{"http-small", setupHTTPSmall},
	{"inmem-doc", setupInMemDoc},
	{"p2ps-tcp", setupP2PS},
	{"lifecycle", setupLifecycle},
}

// closers accumulates teardown steps, run in reverse.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c closers) run() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.Intn(len(alnum))]
	}
	return string(b)
}

// callerRNG gives each caller of a workload its own seeded stream.
func callerRNG(seed int64, workload string, caller int) *rand.Rand {
	h := int64(0)
	for _, c := range workload {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*101 + int64(caller)))
}

// echoDef is the Echo service. The traced run's handler also stamps the
// service function's span and names the payload as the join key.
func echoDef(name string, traced bool) engine.ServiceDef {
	var fn interface{} = func(msg string) string { return msg }
	if traced {
		fn = func(ctx context.Context, msg string) string {
			st := handlerEnter(ctx, msg)
			handlerExit(st)
			return msg
		}
	}
	return engine.ServiceDef{
		Name: name,
		Operations: []engine.OperationDef{{
			Name:       "echo",
			Func:       fn,
			ParamNames: []string{"msg"},
		}},
	}
}

// echoResultIs reports whether an echo result carries want, reading the
// result element's character data in place so checking costs nothing.
func echoResultIs(res *engine.Result, want string) bool {
	if res == nil || res.Wrapper == nil {
		return false
	}
	for _, n := range res.Wrapper.Nodes() {
		el, ok := n.(*xmlutil.Element)
		if !ok {
			continue
		}
		rest := want
		for _, c := range el.Nodes() {
			t, ok := c.(xmlutil.Text)
			if !ok {
				continue
			}
			if !strings.HasPrefix(rest, string(t)) {
				return false
			}
			rest = rest[len(t):]
		}
		return rest == ""
	}
	return false
}

// echoInputs pre-builds a caller's seeded payloads and their parameter
// lists, so issuing a call allocates nothing in the harness.
type echoInputs struct {
	msgs   []string
	params [][]engine.Param
	next   int
}

func newEchoInputs(rng *rand.Rand) *echoInputs {
	in := &echoInputs{msgs: make([]string, echoPool), params: make([][]engine.Param, echoPool)}
	for i := range in.msgs {
		in.msgs[i] = randString(rng, echoBytes)
		in.params[i] = []engine.Param{{Name: "msg", Value: in.msgs[i]}}
	}
	return in
}

func (in *echoInputs) take() (string, []engine.Param) {
	i := in.next
	in.next = (i + 1) % len(in.msgs)
	return in.msgs[i], in.params[i]
}

// echoCaller invokes inv with a caller's seeded payloads. In the traced
// run rec brackets each op and travels in the call's context.
func echoCaller(inv *core.Invocation, rng *rand.Rand, tr *tracer, rec *opTrace) caller {
	in := newEchoInputs(rng)
	ctx := context.Background()
	if rec != nil {
		ctx = withRec(ctx, rec)
	}
	c := caller{op: func() error {
		msg, params := in.take()
		rec.begin(msg)
		rec.invoking()
		res, err := inv.Invoke(ctx, "echo", params...)
		rec.invoked()
		if err == nil && !echoResultIs(res, msg) {
			err = errMismatch
		}
		rec.end()
		return err
	}}
	if tr != nil {
		c.post = func() { tr.finish(rec) }
	}
	return c
}

// clientRegistry returns a consumer's transport registry: plain HTTP, or
// HTTP behind the timing wrapper in the traced run.
func clientRegistry(traced bool) *transport.Registry {
	reg := transport.NewRegistry()
	var t transport.Transport = transport.NewHTTPTransport()
	if traced {
		t = timedTransport{inner: t}
	}
	reg.Register(t)
	return reg
}

func echoReplay() replaySpec {
	msg := strings.Repeat("x", echoBytes)
	return replaySpec{
		def:    func(name string) engine.ServiceDef { return echoDef(name, false) },
		op:     "echo",
		params: []engine.Param{{Name: "msg", Value: msg}},
		result: msg,
	}
}

// ---------------------------------------------------------------------------
// http-small: one provider and one consumer peer over loopback HTTP.

func setupHTTPSmall(seed int64, traced bool) (r *rig, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.run()
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	eng := engine.New()
	pb, err := httpbind.New(httpbind.Options{Engine: eng})
	if err != nil {
		return nil, err
	}
	cl.add(func() { pb.Close() })
	provider := core.NewPeer()
	if err := provider.AttachBinding(pb); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.install(eng)
	}
	dep, err := provider.Server().Deploy(echoDef("Echo", traced))
	if err != nil {
		return nil, err
	}

	cb, err := httpbind.New(httpbind.Options{Registry: clientRegistry(traced)})
	if err != nil {
		return nil, err
	}
	cl.add(func() { cb.Close() })
	consumer := core.NewPeer()
	if err := consumer.AttachBinding(cb); err != nil {
		return nil, err
	}
	if tr != nil {
		consumer.Client().Use(tr.clientInterceptor())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defs, err := httpbind.FetchWSDL(ctx, dep.Endpoint+"?wsdl")
	if err != nil {
		return nil, err
	}
	inv, err := consumer.Client().NewInvocation(&core.ServiceInfo{Name: "Echo", Endpoint: dep.Endpoint, Definitions: defs})
	if err != nil {
		return nil, err
	}
	r = &rig{close: cl.run, tr: tr, tiles: tilesCall, replay: echoReplay()}
	for i := 0; i < callers; i++ {
		r.callers = append(r.callers, echoCaller(inv, callerRNG(seed, "http-small", i), tr, newRec(tr)))
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// inmem-doc: document transform over the in-memory binding.

// Record is one row of the inmem-doc document.
type Record struct {
	ID     int
	Name   string
	Score  float64
	Tags   []string
	Active bool
}

// transform is the Doc service's operation: every field changes, so a
// result that merely echoes its input fails the check.
func transform(in []Record) []Record {
	out := make([]Record, len(in))
	for i, r := range in {
		tags := make([]string, len(r.Tags))
		for j, t := range r.Tags {
			tags[len(tags)-1-j] = t
		}
		out[i] = Record{ID: r.ID*2 + 1, Name: strings.ToUpper(r.Name), Score: r.Score * 2, Tags: tags, Active: !r.Active}
	}
	return out
}

func docDef(name string, traced bool) engine.ServiceDef {
	var fn interface{} = transform
	if traced {
		fn = func(ctx context.Context, records []Record) []Record {
			key := ""
			if len(records) > 0 {
				key = records[0].Name
			}
			st := handlerEnter(ctx, key)
			out := transform(records)
			handlerExit(st)
			return out
		}
	}
	return engine.ServiceDef{
		Name: name,
		Operations: []engine.OperationDef{{
			Name:       "transform",
			Func:       fn,
			ParamNames: []string{"records"},
		}},
	}
}

func seededDoc(rng *rand.Rand) []Record {
	doc := make([]Record, docRecords)
	for i := range doc {
		doc[i] = Record{
			ID:     rng.Intn(100_000),
			Name:   randString(rng, 10),
			Score:  rng.Float64() * 1000,
			Tags:   []string{randString(rng, 6), randString(rng, 6)},
			Active: rng.Intn(2) == 1,
		}
	}
	return doc
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ID != y.ID || x.Name != y.Name || x.Score != y.Score || x.Active != y.Active || len(x.Tags) != len(y.Tags) {
			return false
		}
		for j := range x.Tags {
			if x.Tags[j] != y.Tags[j] {
				return false
			}
		}
	}
	return true
}

func setupInMemDoc(seed int64, traced bool) (r *rig, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.run()
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	network := transport.NewInMemNetwork()
	dir := inmembind.NewDirectory()
	eng := engine.New()
	pb, err := inmembind.New(inmembind.Options{Engine: eng, Network: network, Directory: dir, Host: "provider"})
	if err != nil {
		return nil, err
	}
	cl.add(func() { pb.Close() })
	provider := core.NewPeer()
	if err := provider.AttachBinding(pb); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.install(eng)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := provider.Server().DeployAndPublish(ctx, docDef("Doc", traced)); err != nil {
		return nil, err
	}

	cb, err := inmembind.New(inmembind.Options{Network: network, Directory: dir, Host: "consumer"})
	if err != nil {
		return nil, err
	}
	cl.add(func() { cb.Close() })
	if tr != nil {
		cb.Registry().Register(timedTransport{inner: network.Transport()})
	}
	consumer := core.NewPeer()
	if err := consumer.AttachBinding(cb); err != nil {
		return nil, err
	}
	if tr != nil {
		consumer.Client().Use(tr.clientInterceptor())
	}
	info, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: "Doc"})
	if err != nil {
		return nil, err
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		return nil, err
	}

	sample := seededDoc(callerRNG(seed, "inmem-doc-replay", 0))
	r = &rig{close: cl.run, tr: tr, tiles: tilesCall, replay: replaySpec{
		def:    func(name string) engine.ServiceDef { return docDef(name, false) },
		op:     "transform",
		params: []engine.Param{{Name: "records", Value: sample}},
		result: transform(sample),
	}}
	for i := 0; i < callers; i++ {
		r.callers = append(r.callers, docCaller(inv, callerRNG(seed, "inmem-doc", i), tr))
	}
	return r, nil
}

func docCaller(inv *core.Invocation, rng *rand.Rand, tr *tracer) caller {
	docs := make([][]engine.Param, docPool)
	want := make([][]Record, docPool)
	keys := make([]string, docPool)
	for i := range docs {
		d := seededDoc(rng)
		docs[i] = []engine.Param{{Name: "records", Value: d}}
		want[i] = transform(d)
		keys[i] = d[0].Name
	}
	next := 0
	rec := newRec(tr)
	ctx := context.Background()
	if rec != nil {
		ctx = withRec(ctx, rec)
	}
	c := caller{op: func() error {
		i := next
		next = (i + 1) % docPool
		rec.begin(keys[i])
		rec.invoking()
		res, err := inv.Invoke(ctx, "transform", docs[i]...)
		rec.invoked()
		if err == nil {
			var got []Record
			if err = res.Decode("return", &got); err == nil && !sameRecords(got, want[i]) {
				err = errMismatch
			}
		}
		rec.end()
		return err
	}}
	if tr != nil {
		c.post = func() { tr.finish(rec) }
	}
	return c
}

// ---------------------------------------------------------------------------
// p2ps-tcp: rendezvous, provider and one consumer peer per caller, all on
// P2PS TCP transports over loopback.

// p2psDiscovery bounds each Locate: P2PS discovery collects answers until
// its timeout, so this is the floor of locating a service.
const p2psDiscovery = 50 * time.Millisecond

func setupP2PS(seed int64, traced bool) (r *rig, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.run()
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	node := func(rdv bool, seeds []string, own *opTrace) (*p2ps.Peer, error) {
		tcp, err := p2ps.NewTCPTransport("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var t p2ps.Transport = tcp
		if tr != nil {
			t = &timedPipes{Transport: tcp, t: tr, own: own}
		}
		p, err := p2ps.NewPeer(p2ps.Config{Transport: t, Rendezvous: rdv, Seeds: seeds})
		if err != nil {
			tcp.Close()
			return nil, err
		}
		cl.add(func() { p.Close() })
		return p, nil
	}
	rdv, err := node(true, nil, nil)
	if err != nil {
		return nil, err
	}
	seeds := []string{rdv.Addr()}

	provNode, err := node(false, seeds, nil)
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	pb, err := p2psbind.New(p2psbind.Options{Engine: eng, Peer: provNode, DiscoveryTimeout: p2psDiscovery})
	if err != nil {
		return nil, err
	}
	cl.add(func() { pb.Close() })
	provider := core.NewPeer()
	if err := provider.AttachBinding(pb); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.install(eng)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := provider.Server().DeployAndPublish(ctx, echoDef("Echo", traced)); err != nil {
		return nil, err
	}

	r = &rig{close: cl.run, tr: tr, tiles: tilesPipe, replay: echoReplay()}
	for i := 0; i < callers; i++ {
		rec := newRec(tr)
		cn, err := node(false, seeds, rec)
		if err != nil {
			return nil, err
		}
		cb, err := p2psbind.New(p2psbind.Options{Peer: cn, DiscoveryTimeout: p2psDiscovery})
		if err != nil {
			return nil, err
		}
		cl.add(func() { cb.Close() })
		consumer := core.NewPeer()
		if err := consumer.AttachBinding(cb); err != nil {
			return nil, err
		}
		if tr != nil {
			consumer.Client().Use(tr.clientInterceptor())
		}
		info, err := locateP2PS(ctx, consumer, "Echo")
		if err != nil {
			return nil, err
		}
		inv, err := consumer.Client().NewInvocation(info)
		if err != nil {
			return nil, err
		}
		r.callers = append(r.callers, echoCaller(inv, callerRNG(seed, "p2ps-tcp", i), tr, rec))
	}
	return r, nil
}

// locateP2PS retries discovery until the provider's advert has reached the
// rendezvous.
func locateP2PS(ctx context.Context, consumer *core.Peer, name string) (*core.ServiceInfo, error) {
	for {
		info, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: name})
		if err == nil {
			return info, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("locate %s over p2ps: %w", name, err)
		}
	}
}

// ---------------------------------------------------------------------------
// lifecycle: deploy -> publish -> locate -> invoke -> undeploy against a
// UDDI registry hosted on its own httpd.

func setupLifecycle(seed int64, traced bool) (r *rig, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.run()
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	registry := uddi.NewRegistry()
	frng := callerRNG(seed, "lifecycle-filler", 0)
	for i := 0; i < fillerRecords; i++ {
		name := "Filler" + randString(frng, 12)
		if _, err := registry.Publish(uddi.BusinessService{
			Name:     name,
			Bindings: []uddi.BindingTemplate{{AccessPoint: "http://127.0.0.1:9/services/" + name}},
		}); err != nil {
			return nil, err
		}
	}
	regHost := httpd.New(engine.New(), httpd.Options{})
	cl.add(func() { regHost.Close() })
	regURL, err := regHost.Deploy(uddi.ServiceDef(registry))
	if err != nil {
		return nil, err
	}

	eng := engine.New()
	pb, err := httpbind.New(httpbind.Options{Engine: eng, UDDIEndpoint: regURL})
	if err != nil {
		return nil, err
	}
	cl.add(func() { pb.Close() })
	provider := core.NewPeer()
	if err := provider.AttachBinding(pb); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.install(eng)
	}
	cb, err := httpbind.New(httpbind.Options{UDDIEndpoint: regURL, Registry: clientRegistry(traced)})
	if err != nil {
		return nil, err
	}
	cl.add(func() { cb.Close() })
	consumer := core.NewPeer()
	if err := consumer.AttachBinding(cb); err != nil {
		return nil, err
	}
	if tr != nil {
		consumer.Client().Use(tr.clientInterceptor())
	}

	// The host starts on its first deployment; a resident service makes
	// that part of set-up rather than of the first measured cycle.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resident, err := provider.Server().DeployAndPublish(ctx, echoDef("Echo", traced))
	if err != nil {
		return nil, err
	}
	info, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: "Echo"})
	if err != nil {
		return nil, err
	}
	if info.Endpoint != resident.Endpoint {
		return nil, fmt.Errorf("located %s, deployed %s", info.Endpoint, resident.Endpoint)
	}

	spec := echoReplay()
	spec.extra = func(out map[string]float64) {
		svc := resident.Service
		out["wsdl.generate_us"] = replayNS(func() {
			if _, err := svc.WSDL(wsdl.TransportHTTP, resident.Endpoint); err != nil {
				panic(err)
			}
		}) / 1e3
		q := uddi.FindQuery{Name: "Echo"}
		out["uddi.find_us"] = replayNS(func() {
			if _, err := registry.Find(q); err != nil {
				panic(err)
			}
		}) / 1e3
	}
	r = &rig{close: cl.run, tr: tr, tiles: tilesLifecycle, replay: spec}
	for i := 0; i < callers; i++ {
		r.callers = append(r.callers, cycleCaller(provider, consumer, callerRNG(seed, "lifecycle", i), tr))
	}
	return r, nil
}

// cycleCaller runs full service lifecycles on fresh seeded names.
func cycleCaller(provider, consumer *core.Peer, rng *rand.Rand, tr *tracer) caller {
	ctx := context.Background()
	rec := newRec(tr)
	rctx := ctx
	if rec != nil {
		rctx = withRec(ctx, rec)
	}
	c := caller{op: func() error {
		name := "Svc" + randString(rng, 12)
		msg := randString(rng, echoBytes)
		if rec != nil {
			rec.reset(msg)
		}
		// marks: start, deployed, published, located, invoked, undeployed.
		var marks [6]int64
		marks[0] = now()
		dep, err := provider.Server().Deploy(echoDef(name, tr != nil))
		if err != nil {
			return err
		}
		marks[1] = now()
		err = func() error {
			if err := provider.Server().Publish(ctx, dep); err != nil {
				return err
			}
			marks[2] = now()
			info, err := consumer.Client().LocateOne(ctx, core.NameQuery{Name: name})
			if err != nil {
				return err
			}
			marks[3] = now()
			if info.Endpoint != dep.Endpoint {
				return errMismatch
			}
			inv, err := consumer.Client().NewInvocation(info)
			if err != nil {
				return err
			}
			rec.invoking()
			res, err := inv.Invoke(rctx, "echo", engine.Param{Name: "msg", Value: msg})
			rec.invoked()
			marks[4] = now()
			if err != nil {
				return err
			}
			if !echoResultIs(res, msg) {
				return errMismatch
			}
			return nil
		}()
		// The service goes whatever happened, so a failed cycle leaves
		// nothing behind.
		if uerr := provider.Server().Undeploy(ctx, name); err == nil {
			err = uerr
		}
		marks[5] = now()
		if rec != nil && err == nil {
			for i, seg := range []int{segDeploy, segPublish, segLocate, segInvokeCold, segUndeploy} {
				rec.steps[seg] = marks[i+1] - marks[i]
			}
		}
		return err
	}}
	if tr != nil {
		c.post = func() { tr.finish(rec) }
	}
	return c
}
