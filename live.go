package bvc

import (
	"context"
	"fmt"
	"sync"
)

// The synchronous algorithms require lock-step rounds and therefore run on
// the simulator (Simulate*); the asynchronous algorithms are event-driven
// and run equally on the simulator and on the live consensus service
// (service.go). This file hosts the one-shot live runner.

// RunAsyncCluster runs one instance of the §3.2 asynchronous approximate
// algorithm on a loopback mesh of n Services — one per process, each on
// its own 127.0.0.1 port — and returns the decisions in process order.
// All processes are correct; Byzantine behaviour and adversarial
// scheduling belong to the simulator, the OS scheduler and the loopback
// TCP stack supply real asynchrony here. Every service is closed before
// RunAsyncCluster returns, on success and on error alike.
func RunAsyncCluster(ctx context.Context, cfg Config, inputs []Vector) ([]Vector, error) {
	if len(inputs) != cfg.N {
		return nil, fmt.Errorf("bvc: %d inputs for n=%d", len(inputs), cfg.N)
	}
	tmpl := make([]string, cfg.N)
	for i := range tmpl {
		tmpl[i] = "127.0.0.1:0"
	}
	svcs := make([]*Service, 0, cfg.N)
	defer func() {
		for _, s := range svcs {
			_ = s.Close()
		}
	}()
	addrs := make([]string, cfg.N)
	for i := range tmpl {
		s, err := NewService(ServiceConfig{Config: cfg, ID: i, Addrs: tmpl, Seed: int64(i + 1)})
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		svcs = append(svcs, s)
		addrs[i] = s.Addr()
	}

	// Every process dials its lower-id peers and waits for the others, so
	// the n Establish calls must run concurrently.
	var wg sync.WaitGroup
	errs := make([]error, cfg.N)
	for i, s := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Establish(ctx, addrs)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: establish: %w", i, err)
		}
	}

	chans := make([]<-chan ServiceResult, cfg.N)
	for i, s := range svcs {
		ch, err := s.Propose(0, inputs[i])
		if err != nil {
			return nil, fmt.Errorf("bvc: process %d: %w", i, err)
		}
		chans[i] = ch
	}
	out := make([]Vector, cfg.N)
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				return nil, fmt.Errorf("bvc: process %d: %w", i, r.Err)
			}
			out[i] = r.Decision
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}
