package p2psbind

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wspeer/internal/binding"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
)

// Pipe names the binding uses within a service advertisement.
const (
	// RequestPipeName is the pipe invocations are sent down.
	RequestPipeName = "requests"
	// DefinitionPipeName is the pipe the WSDL is retrieved from — the
	// "definition pipe" extension the paper adds to P2PS service adverts.
	DefinitionPipeName = "definition"
	// CallbackPipeName is the persistent input pipe a consumer hosts to
	// receive decoupled callback replies (core.CallbackHoster).
	CallbackPipeName = "callback-replies"
)

// Options configures the P2PS binding.
type Options struct {
	// Engine hosts the services (a fresh engine when nil).
	Engine *engine.Engine
	// Peer is the underlying P2PS peer (required).
	Peer *p2ps.Peer
	// DiscoveryTimeout bounds Locate calls (default 2s).
	DiscoveryTimeout time.Duration
	// ReplyTimeout bounds waits on reply pipes (default 10s).
	ReplyTimeout time.Duration
	// Retries is how many times an unanswered request is retransmitted
	// before ReplyTimeout expires (default 2, 0 disables). Retransmission
	// is safe because providers suppress duplicate MessageIDs and replay
	// the original response.
	Retries int
}

// EndpointAttr is the advertisement attribute carrying a foreign
// deployment's endpoint URI when the P2PS publisher announces a service it
// did not itself deploy (e.g. an HTTP-hosted service advertised over the
// overlay). Locate surfaces such adverts with that endpoint, so a mixed
// client can discover over P2PS and invoke over the endpoint's own scheme.
const EndpointAttr = "endpoint"

// Binding bundles the P2PS implementation's components. The generic
// attach/detach choreography and event forwarding come from the embedded
// binding.Base; only the pipe substrate specifics live here.
type Binding struct {
	*binding.Base
	pp               *p2ps.Peer
	discoveryTimeout time.Duration
	replyTimeout     time.Duration
	retries          int

	mu          sync.Mutex
	deployed    map[string]*deployedService
	foreignPubs map[string]*deployedService // advert ID -> definition-pipe state
	advertAttrs map[string]map[string]string
	closed      bool

	// inflight counts pipe dispatches in progress so Close can drain them.
	inflight sync.WaitGroup

	// Duplicate suppression: requests are retransmitted on loss, so each
	// deployed service remembers recent MessageIDs and their responses.
	dedupMu    sync.Mutex
	dedupByID  map[string][]byte // MessageID -> serialized reply ("" while in flight)
	dedupOrder []string
}

// dedupCap bounds the duplicate-suppression window.
const dedupCap = 4096

// deployedService is the binding-private deployment state.
type deployedService struct {
	name      string
	reqPipe   *p2ps.InputPipe
	defPipe   *p2ps.InputPipe
	wsdlBytes []byte
}

// New builds the binding over an existing P2PS peer.
func New(opts Options) (*Binding, error) {
	if opts.Peer == nil {
		return nil, fmt.Errorf("p2psbind: options need a P2PS peer")
	}
	if opts.Engine == nil {
		opts.Engine = engine.New()
	}
	if opts.DiscoveryTimeout <= 0 {
		opts.DiscoveryTimeout = 2 * time.Second
	}
	if opts.ReplyTimeout <= 0 {
		opts.ReplyTimeout = 10 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	b := &Binding{
		pp:               opts.Peer,
		discoveryTimeout: opts.DiscoveryTimeout,
		replyTimeout:     opts.ReplyTimeout,
		retries:          opts.Retries,
		deployed:         make(map[string]*deployedService),
		foreignPubs:      make(map[string]*deployedService),
		advertAttrs:      make(map[string]map[string]string),
		dedupByID:        make(map[string][]byte),
	}
	b.Base = binding.NewBase("p2ps", []string{core.P2PSScheme}, opts.Engine, binding.Components{
		Deployer:   b.Deployer(),
		Publishers: []core.ServicePublisher{b.Publisher()},
		Locators:   []core.ServiceLocator{b.Locator()},
		Invokers:   []core.Invoker{b.Invoker()},
	})
	// Every P2PS request carries a non-anonymous ReplyTo (a pipe-advert
	// EPR), so with this sender registered the engine delivers replies
	// itself; the legacy reply path in handleRequest remains as a fallback.
	opts.Engine.RegisterReplySender(core.P2PSScheme, b.ReplySender())
	return b, nil
}

// ReplySender delivers decoupled replies by resolving the reply EPR's pipe
// advertisement and writing the message down a fresh output pipe. Each
// reply is also recorded in the duplicate-suppression window keyed by the
// request MessageID it relates to, so a retransmitted request replays the
// same response instead of being redispatched. Register it on another
// binding's engine to let that substrate answer requests whose ReplyTo is
// a P2PS pipe.
func (b *Binding) ReplySender() engine.ReplySender {
	return engine.ReplySenderFunc(func(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error {
		if msg.Headers != nil && msg.Headers.RelatesTo != "" {
			b.dedupStore(msg.Headers.RelatesTo, msg.Body)
		}
		pipe, err := EPRToPipe(to)
		if err != nil {
			return err
		}
		out, err := b.openPipe(pipe)
		if err != nil {
			return err
		}
		return out.Send(msg.Body)
	})
}

// Peer exposes the underlying P2PS peer.
func (b *Binding) Peer() *p2ps.Peer { return b.pp }

// enter marks a pipe dispatch in flight; it reports false once the binding
// has been closed, in which case the dispatch must be dropped.
func (b *Binding) enter() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.inflight.Add(1)
	return true
}

// Close stops the binding's substrate: every deployed service's pipes are
// closed (foreign-publication definition pipes included), the services are
// undeployed from the engine, and in-flight pipe dispatches are drained.
// Close is idempotent.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	deployed := b.deployed
	foreign := b.foreignPubs
	b.deployed = make(map[string]*deployedService)
	b.foreignPubs = make(map[string]*deployedService)
	b.mu.Unlock()

	for _, ds := range deployed {
		if ds.reqPipe != nil {
			ds.reqPipe.Close()
		}
		if ds.defPipe != nil {
			ds.defPipe.Close()
		}
		b.Engine().Undeploy(ds.name)
	}
	for _, ds := range foreign {
		if ds.defPipe != nil {
			ds.defPipe.Close()
		}
	}
	b.inflight.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Deployer

type deployer struct{ b *Binding }

// Deployer returns the pipe-based deployer.
func (b *Binding) Deployer() core.ServiceDeployer { return deployer{b} }

// Name implements core.ServiceDeployer.
func (d deployer) Name() string { return "p2ps" }

// Deploy implements core.ServiceDeployer: the service gets a request pipe
// and a definition pipe, and its WSDL is bound to its p2ps:// URI.
func (d deployer) Deploy(def engine.ServiceDef) (*core.Deployment, error) {
	b := d.b
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("p2psbind: binding is closed")
	}
	b.mu.Unlock()
	svc, err := b.Engine().Deploy(def)
	if err != nil {
		return nil, err
	}
	cleanup := func() { b.Engine().Undeploy(def.Name) }

	reqPipe, err := b.pp.CreateInputPipe(RequestPipeName)
	if err != nil {
		cleanup()
		return nil, err
	}
	defPipe, err := b.pp.CreateInputPipe(DefinitionPipeName)
	if err != nil {
		reqPipe.Close()
		cleanup()
		return nil, err
	}
	endpoint := core.P2PSURI{Peer: string(b.pp.ID()), Service: def.Name}.String()
	defs, err := svc.WSDL(wsdl.TransportP2PS, endpoint)
	if err != nil {
		reqPipe.Close()
		defPipe.Close()
		cleanup()
		return nil, err
	}
	raw, err := defs.Marshal()
	if err != nil {
		reqPipe.Close()
		defPipe.Close()
		cleanup()
		return nil, err
	}
	ds := &deployedService{name: def.Name, reqPipe: reqPipe, defPipe: defPipe, wsdlBytes: raw}
	reqPipe.AddListener(func(from p2ps.PeerID, data []byte) {
		if !b.enter() {
			return
		}
		defer b.inflight.Done()
		b.handleRequest(ds, data)
	})
	defPipe.AddListener(func(from p2ps.PeerID, data []byte) {
		if !b.enter() {
			return
		}
		defer b.inflight.Done()
		b.handleDefinitionRequest(ds, data)
	})

	b.mu.Lock()
	b.deployed[def.Name] = ds
	b.mu.Unlock()
	return &core.Deployment{
		Service:     svc,
		Endpoint:    endpoint,
		Definitions: defs,
		Deployer:    "p2ps",
		Extra:       ds,
	}, nil
}

// Undeploy implements core.ServiceDeployer.
func (d deployer) Undeploy(service string) error {
	b := d.b
	b.mu.Lock()
	ds := b.deployed[service]
	delete(b.deployed, service)
	b.mu.Unlock()
	if ds == nil {
		return fmt.Errorf("p2psbind: service %q not deployed", service)
	}
	ds.reqPipe.Close()
	ds.defPipe.Close()
	if !b.Engine().Undeploy(service) {
		return fmt.Errorf("p2psbind: engine had no service %q", service)
	}
	return nil
}

// handleRequest implements the provider side of figures 5/6: parse the
// SOAP request, dispatch it through the engine, and send the response down
// the pipe advertised in the request's ReplyTo header.
// dedupCheck returns (replay, done): when done is true the request is a
// duplicate — replay (possibly nil for one-way/in-flight) is what should be
// resent. When done is false the MessageID has been marked in flight.
func (b *Binding) dedupCheck(id string) (replay []byte, done bool) {
	if id == "" {
		return nil, false // unidentified requests cannot be deduplicated
	}
	b.dedupMu.Lock()
	defer b.dedupMu.Unlock()
	if reply, seen := b.dedupByID[id]; seen {
		return reply, true
	}
	if len(b.dedupOrder) >= dedupCap {
		oldest := b.dedupOrder[0]
		b.dedupOrder = b.dedupOrder[1:]
		delete(b.dedupByID, oldest)
	}
	b.dedupByID[id] = nil // in flight
	b.dedupOrder = append(b.dedupOrder, id)
	return nil, false
}

func (b *Binding) dedupStore(id string, reply []byte) {
	if id == "" {
		return
	}
	b.dedupMu.Lock()
	defer b.dedupMu.Unlock()
	if _, seen := b.dedupByID[id]; seen {
		b.dedupByID[id] = reply
	}
}

func (b *Binding) handleRequest(ds *deployedService, data []byte) {
	env, err := soap.Parse(data)
	if err != nil {
		return // no way to reply to an unparseable request
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil {
		return
	}
	// Duplicate suppression: a retransmitted request replays the original
	// response rather than re-invoking the operation.
	if replay, dup := b.dedupCheck(hdr.MessageID); dup {
		if len(replay) > 0 && hdr.ReplyTo != nil {
			b.sendToEPR(hdr.ReplyTo, replay)
		}
		return
	}
	req := &transport.Request{
		Endpoint:    hdr.To,
		Action:      hdr.Action,
		ContentType: soap.ContentType,
		Body:        data,
	}
	// Adopt the caller's propagated deadline (the envelope-substrate twin
	// of the HTTP X-Wspeer-Deadline header): the engine drops dispatches
	// the caller has already abandoned instead of answering into the void.
	ctx := context.Background()
	if dlHdr := env.Header(xmlutil.N(transport.DeadlineNS, transport.DeadlineElement)); dlHdr != nil {
		if dl, ok := transport.ParseDeadline(dlHdr.TrimmedText()); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, dl)
			defer cancel()
		}
	}
	resp, err := b.Engine().ServeRequest(ctx, ds.name, req)
	if err != nil {
		f := soap.ServerFault(err)
		if o, ok := resilience.AsOverload(err); ok {
			// The P2PS equivalent of HTTP 503 + Retry-After: a Server
			// fault whose detail advertises the backoff in seconds.
			f = o.Fault()
		}
		resp = &transport.Response{
			Body:    soap.NewEnvelope().SetFault(f).Marshal(),
			Faulted: true,
		}
	}
	if len(resp.Body) == 0 {
		return // one-way; the dedup entry stays nil so duplicates are dropped
	}
	replyEnv, err := soap.Parse(resp.Body)
	if err != nil {
		return
	}
	// Faults are routed to FaultTo when the request carries one; normal
	// responses (and faults without a FaultTo) go to ReplyTo.
	target := hdr.ReplyTo
	if replyEnv.IsFault() && hdr.FaultTo != nil {
		target = hdr.FaultTo
	}
	if target == nil {
		return // nowhere to reply
	}
	replyHdr := wsaddr.HeadersFor(target, hdr.Action+"#response")
	replyHdr.RelatesTo = hdr.MessageID
	if err := replyHdr.Apply(replyEnv); err != nil {
		return
	}
	wire := replyEnv.Marshal()
	b.dedupStore(hdr.MessageID, wire)
	b.sendToEPR(target, wire)
}

// handleDefinitionRequest serves the WSDL down the requester's reply pipe:
// the service advert's definition pipe is the channel "from which the
// service definition (WSDL in our case) can be retrieved".
func (b *Binding) handleDefinitionRequest(ds *deployedService, data []byte) {
	env, err := soap.Parse(data)
	if err != nil {
		return
	}
	hdr, err := wsaddr.FromEnvelope(env)
	if err != nil || hdr.ReplyTo == nil {
		return
	}
	b.sendToEPR(hdr.ReplyTo, ds.wsdlBytes)
}

// openPipe opens an output pipe, falling back to an in-network endpoint
// resolution when the owning peer's address is not locally cached (e.g.
// the advert was relayed by a third party, or the EPR arrived detached
// from any discovery).
func (b *Binding) openPipe(adv *p2ps.PipeAdvertisement) (*p2ps.OutputPipe, error) {
	out, err := b.pp.OpenOutputPipe(adv)
	if err == nil {
		return out, nil
	}
	op := b.pp.ResolvePeer(adv.Peer, b.replyTimeout)
	<-op.Done()
	if _, ok := op.Result(); !ok {
		return nil, fmt.Errorf("p2psbind: cannot resolve peer %s", adv.Peer)
	}
	return b.pp.OpenOutputPipe(adv)
}

// sendToEPR resolves a reply EPR to an output pipe and sends data down it.
func (b *Binding) sendToEPR(epr *wsaddr.EndpointReference, data []byte) {
	pipe, err := EPRToPipe(epr)
	if err != nil {
		return
	}
	out, err := b.openPipe(pipe)
	if err != nil {
		return
	}
	_ = out.Send(data)
}

// ---------------------------------------------------------------------------
// Publisher

type publisher struct{ b *Binding }

// Publisher returns the advert publisher.
func (b *Binding) Publisher() core.ServicePublisher { return publisher{b} }

// Name implements core.ServicePublisher.
func (p publisher) Name() string { return "p2ps-advert" }

// SetAdvertAttrs attaches extra attributes to a service's advertisement
// when it is published, feeding P2PS's attribute-based search. Call it
// before Publish.
func (b *Binding) SetAdvertAttrs(service string, attrs map[string]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advertAttrs[service] = attrs
}

// Publish implements core.ServicePublisher. A deployment made by the p2ps
// deployer is published as an extended ServiceAdvertisement carrying its
// request and definition pipes. A foreign deployment — made by another
// binding's deployer, the mixed-provider case — is advertised without a
// request pipe: its endpoint URI rides in the EndpointAttr attribute, and
// a definition pipe is created here so discoverers can still retrieve the
// WSDL over the overlay.
func (p publisher) Publish(ctx context.Context, dep *core.Deployment) (string, error) {
	ds, ok := dep.Extra.(*deployedService)
	if !ok {
		return p.b.publishForeign(dep)
	}
	attrs := map[string]string{"binding": "wspeer-p2ps"}
	p.b.mu.Lock()
	for k, v := range p.b.advertAttrs[ds.name] {
		attrs[k] = v
	}
	p.b.mu.Unlock()
	adv := &p2ps.ServiceAdvertisement{
		Name:           ds.name,
		Pipes:          []p2ps.PipeAdvertisement{*ds.reqPipe.Advertisement()},
		DefinitionPipe: ds.defPipe.Advertisement(),
		Attrs:          attrs,
	}
	published, err := p.b.pp.PublishService(adv)
	if err != nil {
		return "", err
	}
	return published.ID, nil
}

// publishForeign advertises a deployment another binding made: no request
// pipe (invocations go to the advertised endpoint over its own scheme),
// but a definition pipe serving the deployment's WSDL.
func (b *Binding) publishForeign(dep *core.Deployment) (string, error) {
	name := dep.Service.Name()
	if dep.Endpoint == "" {
		return "", fmt.Errorf("p2psbind: foreign deployment %q has no endpoint to advertise", name)
	}
	if dep.Definitions == nil {
		return "", fmt.Errorf("p2psbind: foreign deployment %q has no definitions", name)
	}
	raw, err := dep.Definitions.Marshal()
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return "", fmt.Errorf("p2psbind: binding is closed")
	}
	b.mu.Unlock()
	defPipe, err := b.pp.CreateInputPipe(DefinitionPipeName)
	if err != nil {
		return "", err
	}
	ds := &deployedService{name: name, defPipe: defPipe, wsdlBytes: raw}
	defPipe.AddListener(func(from p2ps.PeerID, data []byte) {
		if !b.enter() {
			return
		}
		defer b.inflight.Done()
		b.handleDefinitionRequest(ds, data)
	})
	attrs := map[string]string{"binding": "wspeer-p2ps", EndpointAttr: dep.Endpoint}
	b.mu.Lock()
	for k, v := range b.advertAttrs[name] {
		attrs[k] = v
	}
	b.mu.Unlock()
	adv := &p2ps.ServiceAdvertisement{
		Name:           name,
		DefinitionPipe: defPipe.Advertisement(),
		Attrs:          attrs,
	}
	published, err := b.pp.PublishService(adv)
	if err != nil {
		defPipe.Close()
		return "", err
	}
	b.mu.Lock()
	b.foreignPubs[published.ID] = ds
	b.mu.Unlock()
	return published.ID, nil
}

// Unpublish implements core.ServicePublisher.
func (p publisher) Unpublish(ctx context.Context, location string) error {
	b := p.b
	b.mu.Lock()
	ds := b.foreignPubs[location]
	delete(b.foreignPubs, location)
	b.mu.Unlock()
	if ds != nil && ds.defPipe != nil {
		ds.defPipe.Close()
	}
	if !b.pp.UnpublishService(location) {
		return fmt.Errorf("p2psbind: no advert %q", location)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Locator

type locator struct{ b *Binding }

// Locator returns the in-network discovery locator.
func (b *Binding) Locator() core.ServiceLocator { return locator{b} }

// Name implements core.ServiceLocator.
func (l locator) Name() string { return "p2ps" }

// Locate implements core.ServiceLocator: discover adverts, then retrieve
// each service's WSDL through its definition pipe.
func (l locator) Locate(ctx context.Context, q core.ServiceQuery, found func(*core.ServiceInfo)) error {
	b := l.b
	pq := p2ps.Query{Name: q.QueryName()}
	switch qq := q.(type) {
	case core.NameQuery:
		pq.Attrs = qq.Attrs
	case core.ExprQuery:
		pq.Expr = qq.Expr // evaluated in-network by every peer reached
	}
	d := b.pp.Discover(pq, b.discoveryTimeout)
	select {
	case <-d.Done():
	case <-ctx.Done():
		d.Cancel()
		return ctx.Err()
	}
	var firstErr error
	for _, adv := range d.Matches() {
		info, err := b.infoFromAdvert(ctx, adv)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("p2psbind: advert %q: %w", adv.Name, err)
			}
			continue
		}
		found(info)
	}
	return firstErr
}

func (b *Binding) infoFromAdvert(ctx context.Context, adv *p2ps.ServiceAdvertisement) (*core.ServiceInfo, error) {
	defs, err := b.FetchDefinitions(ctx, adv)
	if err != nil {
		return nil, err
	}
	// A foreign advert (no request pipe) carries the service's real endpoint
	// in an attribute: surface that, so invocation is routed by its scheme.
	endpoint := core.P2PSURI{Peer: string(adv.Peer), Service: adv.Name}.String()
	if ep := adv.Attrs[EndpointAttr]; ep != "" && adv.Pipe(RequestPipeName) == nil {
		endpoint = ep
	}
	return &core.ServiceInfo{
		Name:        adv.Name,
		Definitions: defs,
		Endpoint:    endpoint,
		Locator:     "p2ps",
		Meta:        map[string]string{"advertID": adv.ID},
		Extra:       adv,
	}, nil
}

// FetchDefinitions retrieves a service's WSDL through its definition pipe
// using the ReplyTo pattern.
func (b *Binding) FetchDefinitions(ctx context.Context, adv *p2ps.ServiceAdvertisement) (*wsdl.Definitions, error) {
	if adv.DefinitionPipe == nil {
		return nil, fmt.Errorf("advert has no definition pipe")
	}
	reply, err := b.pp.CreateInputPipe("wsdl-reply")
	if err != nil {
		return nil, err
	}
	defer reply.Close()
	ch := make(chan []byte, 1)
	reply.AddListener(func(_ p2ps.PeerID, data []byte) {
		select {
		case ch <- data:
		default:
		}
	})

	env := soap.NewEnvelope()
	env.AddBodyElement(xmlutil.NewElement(xmlutil.N(p2ps.Namespace, "GetDefinition")))
	hdr := wsaddr.HeadersFor(PipeToEPR(adv.DefinitionPipe, adv.Name), ActionFor(adv.Peer, adv.Name, DefinitionPipeName))
	hdr.ReplyTo = PipeToEPR(reply.Advertisement(), "")
	if err := hdr.Apply(env); err != nil {
		return nil, err
	}
	out, err := b.openPipe(adv.DefinitionPipe)
	if err != nil {
		return nil, err
	}
	if err := out.Send(env.Marshal()); err != nil {
		return nil, err
	}
	timeout := time.NewTimer(b.replyTimeout)
	defer timeout.Stop()
	select {
	case data := <-ch:
		return wsdl.Parse(data)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timeout.C:
		return nil, fmt.Errorf("timed out retrieving WSDL from definition pipe")
	}
}

// ---------------------------------------------------------------------------
// Invoker

type invoker struct{ b *Binding }

// Invoker returns the pipe invoker.
func (b *Binding) Invoker() core.Invoker { return invoker{b} }

// Schemes implements core.Invoker.
func (i invoker) Schemes() []string { return []string{core.P2PSScheme} }

// advertFor resolves the P2PS advertisement backing a service. A service
// located through the p2ps locator carries its advert in Extra; a service
// located elsewhere — e.g. a UDDI record with a p2ps:// endpoint, the
// mixed UDDI-locator + P2PS-invoker composition — is resolved by
// discovering an advert matching the endpoint's peer and service name.
// The ServiceInfo is never mutated: it may be shared across goroutines.
func (b *Binding) advertFor(ctx context.Context, svc *core.ServiceInfo) (*p2ps.ServiceAdvertisement, error) {
	if adv, ok := svc.Extra.(*p2ps.ServiceAdvertisement); ok {
		return adv, nil
	}
	uri, err := core.ParseP2PSURI(svc.Endpoint)
	if err != nil {
		return nil, fmt.Errorf("p2psbind: service %q carries no P2PS advertisement and no p2ps:// endpoint: %w", svc.Name, err)
	}
	d := b.pp.Discover(p2ps.Query{Name: uri.Service}, b.discoveryTimeout)
	select {
	case <-d.Done():
	case <-ctx.Done():
		d.Cancel()
		return nil, ctx.Err()
	}
	for _, adv := range d.Matches() {
		if string(adv.Peer) == uri.Peer && adv.Pipe(RequestPipeName) != nil {
			return adv, nil
		}
	}
	return nil, fmt.Errorf("p2psbind: no advertisement found for %s", svc.Endpoint)
}

// Invoke implements core.Invoker: figures 5 and 6 in code. A request pipe
// is resolved from the service advert, a reply pipe is created and
// serialized into the ReplyTo header, and the SOAP request travels down
// the remote pipe; the response is correlated by RelatesTo.
func (i invoker) Invoke(ctx context.Context, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	b := i.b
	adv, err := b.advertFor(ctx, svc)
	if err != nil {
		return nil, err
	}
	reqPipeAdv := adv.Pipe(RequestPipeName)
	if reqPipeAdv == nil {
		return nil, fmt.Errorf("p2psbind: advert %q has no %q pipe", adv.Name, RequestPipeName)
	}
	if svc.Definitions == nil {
		return nil, fmt.Errorf("p2psbind: service %q has no definitions", svc.Name)
	}
	stub := engine.NewStub(svc.Definitions, nil)
	env, det, err := stub.PrepareEnvelope(op, params...)
	if err != nil {
		return nil, err
	}

	// Fig. 5 step 1-2: request an input pipe to receive the response on.
	reply, err := b.pp.CreateInputPipe("reply")
	if err != nil {
		return nil, err
	}
	defer reply.Close()
	ch := make(chan []byte, 4)
	reply.AddListener(func(_ p2ps.PeerID, data []byte) {
		select {
		case ch <- data:
		default:
		}
	})

	// Fig. 5 step 3: serialize the pipe advert to WS-Addressing standards
	// and add it to the SOAP request.
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipeAdv, adv.Name), ActionFor(adv.Peer, adv.Name, RequestPipeName))
	hdr.ReplyTo = PipeToEPR(reply.Advertisement(), "")
	if err := hdr.Apply(env); err != nil {
		return nil, err
	}
	// Propagate the caller's deadline as a (non-mustUnderstand) SOAP
	// header, the pipe substrate's equivalent of X-Wspeer-Deadline.
	if dl, ok := ctx.Deadline(); ok {
		env.AddHeader(xmlutil.NewElement(xmlutil.N(transport.DeadlineNS, transport.DeadlineElement)).
			SetText(transport.FormatDeadline(dl)))
	}

	// Fig. 5 step 5: send the SOAP down the remote pipe.
	out, err := b.openPipe(reqPipeAdv)
	if err != nil {
		return nil, err
	}
	wire := env.Marshal()
	if err := out.Send(wire); err != nil {
		return nil, err
	}
	if det.Operation.OneWay() {
		return nil, nil
	}

	// Fig. 5 step 6-8: await the response on the reply pipe, correlating
	// by RelatesTo. Pipes are datagrams, so an unanswered request is
	// retransmitted within the reply window; the provider's duplicate
	// suppression makes that safe.
	attempts := b.retries + 1
	perAttempt := b.replyTimeout / time.Duration(attempts)
	deadline := time.NewTimer(b.replyTimeout)
	defer deadline.Stop()
	retry := time.NewTimer(perAttempt)
	defer retry.Stop()
	sent := 1
	for {
		select {
		case data := <-ch:
			respEnv, err := soap.Parse(data)
			if err != nil {
				continue // garbage on the reply pipe: keep waiting
			}
			respHdr, err := wsaddr.FromEnvelope(respEnv)
			if err == nil && respHdr.RelatesTo != "" && respHdr.RelatesTo != hdr.MessageID {
				continue // response to someone else's request
			}
			return engine.DecodeResponseEnvelope(respEnv, det)
		case <-retry.C:
			if sent < attempts {
				sent++
				_ = out.Send(wire) // identical MessageID: a retransmission
				retry.Reset(perAttempt)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("p2psbind: no response from %s within %v (%d attempts)", svc.Endpoint, b.replyTimeout, sent)
		}
	}
}

// InvokeCall implements core.CallInvoker. Without exchange-layer headers
// on the carrier it is the synchronous invocation above; with them it
// sends per the requested exchange pattern. P2PS correlates replies by
// WS-Addressing natively, so a stamped request/response call is simply the
// normal invocation — only the one-way and callback patterns change the
// wire behaviour (no reply pipe is created and nothing is awaited).
func (i invoker) InvokeCall(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	hdr := binding.ExchangeHeaders(c)
	if hdr == nil {
		return i.Invoke(c.Ctx, svc, op, params)
	}
	if p, _ := c.GetMeta(exchange.MetaPattern).(exchange.Pattern); p == exchange.RequestResponse {
		return i.Invoke(c.Ctx, svc, op, params)
	}
	return i.invokeExchange(c, svc, op, params, hdr)
}

// invokeExchange sends one one-way or callback message down the service's
// request pipe: the core-minted MessageID keys the correlation table, the
// ReplyTo (when present) names the consumer's hosted callback pipe, and a
// completed pipe write is the transport-level ack.
func (i invoker) invokeExchange(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param, xh *wsaddr.MessageHeaders) (*engine.Result, error) {
	b := i.b
	ctx := c.Ctx
	adv, err := b.advertFor(ctx, svc)
	if err != nil {
		return nil, err
	}
	reqPipeAdv := adv.Pipe(RequestPipeName)
	if reqPipeAdv == nil {
		return nil, fmt.Errorf("p2psbind: advert %q has no %q pipe", adv.Name, RequestPipeName)
	}
	if svc.Definitions == nil {
		return nil, fmt.Errorf("p2psbind: service %q has no definitions", svc.Name)
	}
	stub := engine.NewStub(svc.Definitions, nil)
	env, _, err := stub.PrepareEnvelope(op, params...)
	if err != nil {
		return nil, err
	}
	hdr := wsaddr.HeadersFor(PipeToEPR(reqPipeAdv, adv.Name), ActionFor(adv.Peer, adv.Name, RequestPipeName))
	if xh.MessageID != "" {
		hdr.MessageID = xh.MessageID // the ID the correlation table is keyed by
	}
	hdr.ReplyTo = xh.ReplyTo // nil for one-way: no reply is expected
	hdr.FaultTo = xh.FaultTo
	if err := hdr.Apply(env); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		env.AddHeader(xmlutil.NewElement(xmlutil.N(transport.DeadlineNS, transport.DeadlineElement)).
			SetText(transport.FormatDeadline(dl)))
	}
	out, err := b.openPipe(reqPipeAdv)
	if err != nil {
		return nil, err
	}
	wire := env.Marshal()
	c.Request = &transport.Request{
		Endpoint:    svc.Endpoint,
		Action:      hdr.Action,
		ContentType: soap.ContentType,
		Body:        wire,
	}
	if err := out.Send(wire); err != nil {
		return nil, err
	}
	c.Response = &transport.Response{}
	return nil, nil
}

// pipeReplyEndpoint is a consumer-hosted callback pipe.
type pipeReplyEndpoint struct {
	epr  *wsaddr.EndpointReference
	pipe *p2ps.InputPipe
}

// EPR implements core.ReplyEndpoint.
func (e *pipeReplyEndpoint) EPR() *wsaddr.EndpointReference { return e.epr }

// Close implements core.ReplyEndpoint.
func (e *pipeReplyEndpoint) Close() error {
	e.pipe.Close()
	return nil
}

// HostReplyEndpoint implements core.CallbackHoster: unlike the per-call
// reply pipes of the synchronous path, the callback pattern hosts one
// persistent input pipe whose advert EPR is stamped as the ReplyTo of
// every callback invocation; inbound replies are fed to deliver and
// correlated by the client's table.
func (i invoker) HostReplyEndpoint(deliver func(body []byte)) (core.ReplyEndpoint, error) {
	b := i.b
	pipe, err := b.pp.CreateInputPipe(CallbackPipeName)
	if err != nil {
		return nil, err
	}
	pipe.AddListener(func(_ p2ps.PeerID, data []byte) {
		if !b.enter() {
			return
		}
		defer b.inflight.Done()
		deliver(data)
	})
	return &pipeReplyEndpoint{epr: PipeToEPR(pipe.Advertisement(), ""), pipe: pipe}, nil
}
