package fabric

// The client connection rules, shared by the attached Backend and the
// detached Client submit: an answer from the dispatcher is final, and both
// redial for 30 s by default (a Backend RedialBudget <= 0; a detached submit
// always).

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// TestSubmitRefusalIsFinal: a draining dispatcher refuses new submissions.
// The refusal is the dispatcher's answer, so both submit paths must return
// it at once instead of redialing until the budget runs out.
func TestSubmitRefusalIsFinal(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{})
	if err := d.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	env := exp.Env{Sweep: &sw}
	const budget = time.Second
	for _, tc := range []struct {
		name   string
		submit func(context.Context) error
	}{
		{"detached", func(ctx context.Context) error {
			_, err := (&Client{Addr: addr}).SubmitDetached(ctx, "refused", env, tasks)
			return err
		}},
		{"attached", func(ctx context.Context) error {
			b := &Backend{Addr: addr, Name: "refused", RedialBudget: budget}
			return b.Submit(ctx, env, tasks, func(exp.TaskResult) error { return nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The detached submit redials for 30 s; the deadline turns a
			// redial after the answer into a prompt failure, not a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 2*budget)
			defer cancel()
			start := time.Now()
			err := tc.submit(ctx)
			elapsed := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), "draining") {
				t.Fatalf("submit to a draining dispatcher: got %v, want the dispatcher's draining refusal", err)
			}
			if errors.Is(err, exp.ErrBackendUnavailable) {
				t.Fatalf("the dispatcher answered, but the error claims it was unreachable: %v", err)
			}
			if elapsed >= budget {
				t.Fatalf("refusal took %v: the submit redialed after the dispatcher answered", elapsed)
			}
		})
	}
}

// TestZeroRedialBudgetWaits: a Backend's zero RedialBudget is the 30 s
// default, the detached submit's budget, so on both submit paths a
// dispatcher that comes up 400 ms after the submit still gets the job.
func TestZeroRedialBudgetWaits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})

	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	tasks = tasks[:1]
	env := exp.Env{Sweep: &sw}
	ctx := context.Background()
	detached, attached := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := (&Client{Addr: addr}).SubmitDetached(ctx, "late-detached", env, tasks)
		detached <- err
	}()
	go func() {
		b := &Backend{Addr: addr, Name: "late-attached"}
		attached <- b.Submit(ctx, env, tasks, func(exp.TaskResult) error { return nil })
	}()

	// The dispatcher starts late on purpose: both submits have already
	// been refused at the TCP level at least once.
	time.Sleep(400 * time.Millisecond)
	d := NewDispatcher(DispatcherOptions{})
	serveDispatcherOn(t, d, addr)
	if err := <-detached; err != nil {
		t.Fatalf("detached submit gave up on a dispatcher that started 400 ms later: %v", err)
	}
	if err := <-attached; err != nil {
		t.Fatalf("attached submit with a zero RedialBudget gave up on a dispatcher that started 400 ms later: %v", err)
	}
	if jobs := d.Jobs(); len(jobs) != 2 {
		t.Fatalf("late dispatcher registered %d jobs, want 2: %+v", len(jobs), jobs)
	}
}
