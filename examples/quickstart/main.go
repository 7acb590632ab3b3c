// Command quickstart walks through WSPeer's full standard-binding
// lifecycle in one process: it starts a UDDI registry (itself a
// WSPeer-hosted service), deploys an Echo service from a provider peer,
// publishes it, then — as a separate consumer peer — locates it by name
// and invokes it over real HTTP.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wspeer"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
)

func main() {
	ctx := context.Background()

	// 1. A registry node: the UDDI registry is just another WSPeer
	//    service.
	registryHost := httpd.New(engine.New(), httpd.Options{})
	defer registryHost.Close()
	registryURL, err := registryHost.Deploy(wspeer.UDDIServiceDef(wspeer.NewUDDIRegistry()))
	if err != nil {
		log.Fatalf("starting registry: %v", err)
	}
	fmt.Println("registry:", registryURL)

	// 2. The provider peer: deploy + publish. No container — the HTTP
	//    server launches lazily with this first deployment.
	provider := wspeer.NewPeer()
	providerBinding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		log.Fatal(err)
	}
	defer providerBinding.Close()
	if err := provider.AttachBinding(providerBinding); err != nil {
		log.Fatal(err)
	}

	// Watch the provider's events: everything the interface tree does is
	// observable through one listener (paper §III).
	provider.AddListener(wspeer.ListenerFuncs{
		Deployment: func(e wspeer.DeploymentMessageEvent) {
			fmt.Printf("event: deployed %s at %s\n", e.Service, e.Endpoint)
		},
		Publish: func(e wspeer.PublishEvent) {
			fmt.Printf("event: published %s via %s (%s)\n", e.Service, e.Publisher, e.Location)
		},
		Server: func(e wspeer.ServerMessageEvent) {
			fmt.Printf("event: served a %d-byte request for %s\n", len(e.Request.Body), e.Service)
		},
	})

	_, err = provider.Server().DeployAndPublish(ctx, wspeer.ServiceDef{
		Name: "Echo",
		Operations: []wspeer.OperationDef{
			{
				Name:       "echo",
				Func:       func(msg string) string { return "echo: " + msg },
				ParamNames: []string{"msg"},
				Doc:        "returns its input prefixed with 'echo: '",
			},
			{
				Name: "shout",
				Func: func(msg string, times int64) []string {
					out := make([]string, times)
					for i := range out {
						out[i] = msg + "!"
					}
					return out
				},
				ParamNames: []string{"msg", "times"},
			},
		},
	})
	if err != nil {
		log.Fatalf("deploy+publish: %v", err)
	}

	// 3. The consumer peer: locate by name, invoke over HTTP. Its client
	// subsystems are fixed when it is built; here a tripped circuit
	// breaker probes again after one second instead of the default.
	consumer := wspeer.NewPeer(wspeer.WithBreakers(wspeer.BreakerOptions{OpenTimeout: time.Second}))
	consumerBinding, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		log.Fatal(err)
	}
	defer consumerBinding.Close()
	if err := consumer.AttachBinding(consumerBinding); err != nil {
		log.Fatal(err)
	}

	infos, err := consumer.Client().LocateCached(ctx, wspeer.NameQuery{Name: "Echo"})
	if err != nil {
		log.Fatalf("locate: %v", err)
	}
	for _, info := range infos {
		fmt.Printf("located %q at %s (via %s)\n", info.Name, info.Endpoint, info.Locator)
	}

	// One invocation bound to every located endpoint: it calls the first
	// and fails over to the next on a transport failure.
	inv, err := consumer.Client().NewInvocation(infos...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "hello wspeer"))
	if err != nil {
		log.Fatalf("invoke: %v", err)
	}
	reply, err := res.String("return")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("echo returned:", reply)

	res, err = inv.Invoke(ctx, "shout", wspeer.P("msg", "soa"), wspeer.P("times", int64(3)))
	if err != nil {
		log.Fatal(err)
	}
	var shouts []string
	if err := res.Decode("return", &shouts); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shout returned:", shouts)
}
