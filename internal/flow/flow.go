// Package flow composes located services into executable workflows — the
// capability the Triana environment builds on WSPeer (paper §V): "Users
// can drag these icons onto a scratchpad and wire them together to create
// Web service workflows." A Workflow is a DAG of invocation steps whose
// inputs are constants or other steps' outputs; independent steps run
// concurrently, and each step's completion is observable.
package flow

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"wspeer/internal/core"
	"wspeer/internal/engine"
)

// Source produces one input value for a step at run time.
type Source interface {
	resolve(r *run) (interface{}, error)
}

type constSource struct{ v interface{} }

func (s constSource) resolve(*run) (interface{}, error) { return s.v, nil }

// Const supplies a fixed input value.
func Const(v interface{}) Source { return constSource{v: v} }

type outputSource struct {
	step  string
	part  string
	proto reflect.Type
}

func (s outputSource) resolve(r *run) (interface{}, error) {
	res, ok := r.result(s.step)
	if !ok {
		return nil, fmt.Errorf("flow: step %q has no result", s.step)
	}
	if res == nil {
		return nil, fmt.Errorf("flow: step %q was one-way and has no outputs", s.step)
	}
	out := reflect.New(s.proto)
	if err := res.Decode(s.part, out.Interface()); err != nil {
		return nil, fmt.Errorf("flow: decoding %s.%s: %w", s.step, s.part, err)
	}
	return out.Elem().Interface(), nil
}

// Output wires a prior step's named result part into this input. proto is
// a value of the expected Go type (its contents are ignored), e.g.
// Output("tokenize", "return", []string(nil)).
func Output(step, part string, proto interface{}) Source {
	return outputSource{step: step, part: part, proto: reflect.TypeOf(proto)}
}

type funcSource struct {
	fn func() (interface{}, error)
}

func (s funcSource) resolve(*run) (interface{}, error) { return s.fn() }

// FromFunc supplies an input computed at run time.
func FromFunc(fn func() (interface{}, error)) Source { return funcSource{fn: fn} }

// Step is one node of the workflow: an operation invoked on a located
// service, with named inputs.
type Step struct {
	// Name identifies the step within the workflow.
	Name string
	// Invocation is the bound target (from Client.NewInvocation).
	Invocation *core.Invocation
	// Operation to invoke.
	Operation string
	// Inputs maps parameter names to sources.
	Inputs map[string]Source
	// After adds explicit ordering constraints beyond data dependencies.
	After []string
}

// dependencies returns the step names this step waits on.
func (s *Step) dependencies() []string {
	var deps []string
	seen := map[string]bool{}
	for _, src := range s.Inputs {
		if o, ok := src.(outputSource); ok && !seen[o.step] {
			seen[o.step] = true
			deps = append(deps, o.step)
		}
	}
	for _, a := range s.After {
		if !seen[a] {
			seen[a] = true
			deps = append(deps, a)
		}
	}
	return deps
}

// Workflow is an executable DAG of steps.
type Workflow struct {
	name  string
	steps map[string]*Step
	order []string

	mu     sync.Mutex
	onStep func(StepEvent)
}

// StepEvent reports one step's completion (or failure).
type StepEvent struct {
	Workflow string
	Step     string
	Err      error
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{name: name, steps: make(map[string]*Step)}
}

// Name returns the workflow's name.
func (w *Workflow) Name() string { return w.name }

// OnStep registers a completion observer.
func (w *Workflow) OnStep(fn func(StepEvent)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onStep = fn
}

// AddStep adds a step. Steps may be added in any order; dependencies are
// validated at Run.
func (w *Workflow) AddStep(s Step) error {
	if s.Name == "" {
		return fmt.Errorf("flow: step needs a name")
	}
	if _, dup := w.steps[s.Name]; dup {
		return fmt.Errorf("flow: duplicate step %q", s.Name)
	}
	if s.Invocation == nil {
		return fmt.Errorf("flow: step %q has no invocation", s.Name)
	}
	if s.Operation == "" {
		return fmt.Errorf("flow: step %q has no operation", s.Name)
	}
	cp := s
	w.steps[s.Name] = &cp
	w.order = append(w.order, s.Name)
	return nil
}

// Results holds a completed run's outputs.
type Results struct {
	results map[string]*engine.Result
}

// Result returns a step's invocation result (nil for one-way steps).
func (r *Results) Result(step string) *engine.Result { return r.results[step] }

// Decode extracts a step's named result part into out.
func (r *Results) Decode(step, part string, out interface{}) error {
	res, ok := r.results[step]
	if !ok {
		return fmt.Errorf("flow: no result for step %q", step)
	}
	if res == nil {
		return fmt.Errorf("flow: step %q was one-way", step)
	}
	return res.Decode(part, out)
}

// run is the mutable state of one execution.
type run struct {
	mu      sync.Mutex
	results map[string]*engine.Result
}

// Run executes the workflow: steps start as soon as their dependencies
// complete, independent branches in parallel. The first failure cancels
// the remaining steps. Each step's invocation runs on its client's bounded
// invocation scheduler (configured with core.WithScheduler), so a wide fan-out
// holds at most MaxConcurrent invocations in flight per client and excess
// steps are shed with a *resilience.OverloadError instead of stampeding
// the substrate.
func (w *Workflow) Run(ctx context.Context) (*Results, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &run{results: make(map[string]*engine.Result, len(w.steps))}
	done := make(map[string]chan struct{}, len(w.steps))
	for name := range w.steps {
		done[name] = make(chan struct{})
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(step string, err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("flow: step %q: %w", step, err)
		}
		errMu.Unlock()
		cancel()
	}

	for _, name := range w.order {
		step := w.steps[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[step.Name])
			// Wait for dependencies.
			for _, dep := range step.dependencies() {
				select {
				case <-done[dep]:
				case <-ctx.Done():
					return
				}
			}
			if ctx.Err() != nil {
				return
			}
			errMu.Lock()
			failed := firstErr != nil
			errMu.Unlock()
			if failed {
				return
			}
			// Resolve inputs.
			params := make([]engine.Param, 0, len(step.Inputs))
			for pname, src := range step.Inputs {
				v, err := src.resolve(r)
				if err != nil {
					fail(step.Name, err)
					w.fireStep(StepEvent{Workflow: w.name, Step: step.Name, Err: err})
					return
				}
				params = append(params, engine.Param{Name: pname, Value: v})
			}
			// Submit through the client's bounded scheduler rather than
			// invoking inline: the DAG fan-out above decides *when* a step
			// may start, the scheduler decides *how many* may be on the
			// wire at once. The callback fires exactly once — with the
			// invocation's outcome, or with the scheduler's shed error.
			type outcome struct {
				res *engine.Result
				err error
			}
			ch := make(chan outcome, 1)
			step.Invocation.InvokeAsync(ctx, step.Operation, params, func(res *engine.Result, err error) {
				ch <- outcome{res: res, err: err}
			})
			o := <-ch
			res, err := o.res, o.err
			w.fireStep(StepEvent{Workflow: w.name, Step: step.Name, Err: err})
			if err != nil {
				fail(step.Name, err)
				return
			}
			r.mu.Lock()
			r.results[step.Name] = res
			r.mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Results{results: r.results}, nil
}

func (w *Workflow) fireStep(e StepEvent) {
	w.mu.Lock()
	fn := w.onStep
	w.mu.Unlock()
	if fn != nil {
		fn(e)
	}
}

// validate checks referential integrity and rejects cycles.
func (w *Workflow) validate() error {
	if len(w.steps) == 0 {
		return fmt.Errorf("flow: workflow %q has no steps", w.name)
	}
	for _, name := range w.order {
		for _, dep := range w.steps[name].dependencies() {
			if _, ok := w.steps[dep]; !ok {
				return fmt.Errorf("flow: step %q depends on unknown step %q", name, dep)
			}
		}
	}
	// Cycle detection: Kahn's algorithm.
	indeg := make(map[string]int, len(w.steps))
	dependents := make(map[string][]string, len(w.steps))
	for _, name := range w.order {
		deps := w.steps[name].dependencies()
		indeg[name] = len(deps)
		for _, dep := range deps {
			dependents[dep] = append(dependents[dep], name)
		}
	}
	var queue []string
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, m := range dependents[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != len(w.steps) {
		return fmt.Errorf("flow: workflow %q contains a dependency cycle", w.name)
	}
	return nil
}

// resolve implements the run-side access used by outputSource; it locks
// because parallel branches may read while others write.
func (r *run) result(step string) (*engine.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[step]
	return res, ok
}
