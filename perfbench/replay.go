package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// replayBatches is how many timed batches each replayed function runs;
// the reported figure is their median.
const replayBatches = 5

// replayBatch is the wall time one batch aims for.
const replayBatch = 20 * time.Millisecond

// replay runs fn in timed batches on the calling goroutine and returns the
// median nanoseconds and allocations per call. Allocations are the
// process's Mallocs delta, so other goroutines must be idle.
func replay(fn func()) (ns, allocs float64) {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= replayBatch/4 || n >= 1<<20 {
			n = int(float64(n) * float64(replayBatch) / float64(d+1))
			break
		}
		n *= 2
	}
	if n < 1 {
		n = 1
	}
	nsv := make([]float64, replayBatches)
	av := make([]float64, replayBatches)
	var m0, m1 runtime.MemStats
	for b := range nsv {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nsv[b] = float64(d) / float64(n)
		av[b] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	return median(nsv), median(av)
}

func replayNS(fn func()) float64 {
	ns, _ := replay(fn)
	return ns
}

// replayCodecs replays each codec entry point on the request the traced
// run captured at the provider and on the response a hook-free engine
// gives for it, and writes per-op figures into out: one op parses,
// marshals, encodes and decodes both a request and a response.
func replayCodecs(spec replaySpec, service string, request []byte, out map[string]float64) error {
	eng := engine.New()
	svc, err := eng.Deploy(spec.def(service))
	if err != nil {
		return err
	}
	ctx := context.Background()
	serve := func() (*transport.Response, error) {
		return eng.ServeRequest(ctx, service, &transport.Request{Body: request, ContentType: soap.ContentType})
	}
	resp, err := serve()
	if err != nil {
		return err
	}
	if resp.Faulted {
		return fmt.Errorf("replayed request answered with a fault: %s", resp.Body)
	}
	response := resp.Body
	defs, err := svc.WSDL(wsdl.TransportHTTP, "http://127.0.0.1:9/services/"+service)
	if err != nil {
		return err
	}
	stub := engine.NewStub(defs, nil)
	_, det, err := stub.BuildRequest(spec.op, spec.params...)
	if err != nil {
		return err
	}
	reqEnv, err := soap.Parse(request)
	if err != nil {
		return err
	}
	respEnv, err := soap.Parse(response)
	if err != nil {
		return err
	}
	reqWrap, respWrap := reqEnv.FirstBodyElement(), respEnv.FirstBodyElement()
	if reqWrap == nil || respWrap == nil {
		return fmt.Errorf("captured messages have empty bodies")
	}
	ns := reqWrap.Name.Space
	argName, resName := firstChildName(reqWrap), firstChildName(respWrap)
	arg := reflect.ValueOf(spec.params[0].Value)
	res := reflect.ValueOf(spec.result)
	argEnc, resEnc := xsd.EncoderForType(arg.Type()), xsd.EncoderForType(res.Type())
	argDec, resDec := xsd.DecoderForType(arg.Type()), xsd.DecoderForType(res.Type())

	var failure error
	must := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	both := func(name string, fn func(body []byte) error) {
		ns, allocs := replay(func() { must(fn(request)); must(fn(response)) })
		out[name+"_us"], out[name+"_allocs"] = ns/1e3, allocs
	}
	both("xmlutil.parse", func(b []byte) error { _, err := xmlutil.ParseBytes(b); return err })
	both("soap.parse", func(b []byte) error { _, err := soap.Parse(b); return err })
	ns1, a1 := replay(func() { reqEnv.Marshal(); respEnv.Marshal() })
	out["soap.marshal_us"], out["soap.marshal_allocs"] = ns1/1e3, a1
	ns1, a1 = replay(func() {
		must(argEnc(xmlutil.NewElement(reqWrap.Name), ns, argName, arg))
		must(resEnc(xmlutil.NewElement(respWrap.Name), ns, resName, res))
	})
	out["xsd.encode_us"], out["xsd.encode_allocs"] = ns1/1e3, a1
	ns1, a1 = replay(func() {
		_, err := argDec(reqWrap, ns, argName)
		must(err)
		_, err = resDec(respWrap, ns, resName)
		must(err)
	})
	out["xsd.decode_us"], out["xsd.decode_allocs"] = ns1/1e3, a1
	ns1, a1 = replay(func() { _, _, err := stub.BuildRequest(spec.op, spec.params...); must(err) })
	out["engine.build_us"], out["engine.build_allocs"] = ns1/1e3, a1
	ns1, a1 = replay(func() { _, err := serve(); must(err) })
	out["engine.serve_us"], out["engine.serve_allocs"] = ns1/1e3, a1
	ns1, a1 = replay(func() { _, err := engine.DecodeResponse(response, det); must(err) })
	out["engine.decode_resp_us"], out["engine.decode_resp_allocs"] = ns1/1e3, a1
	out["wsaddr.read_us"] = replayNS(func() { _, err := wsaddr.FromEnvelope(reqEnv); must(err) }) / 1e3
	out["soap.req_bytes"] = float64(len(request))
	out["soap.resp_bytes"] = float64(len(response))
	if spec.extra != nil {
		spec.extra(out)
	}
	return failure
}

func firstChildName(el *xmlutil.Element) string {
	for _, n := range el.Nodes() {
		if c, ok := n.(*xmlutil.Element); ok {
			return c.Name.Local
		}
	}
	return ""
}
