package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/exp"
)

// Backend submits task batches to a running fabric dispatcher — the
// exp.Backend implementation behind the drivers' `-dispatcher host:port`
// flag. The submission is
// attached: results stream back on the same connection. When the
// connection drops (network blip, dispatcher restart), the backend redials
// through the redial loop the workers use and resubmits under the same
// idempotency ref — the dispatcher re-attaches it to the existing job (or,
// after a journaled restart, to the replayed one) and streams the results
// it missed, so a dispatcher restart is a stall, not a failure. Because the
// dispatcher's workers all execute the shared exp task executor and
// outcomes are addressed by index, a fabric run is byte-identical to
// PoolBackend for any worker fleet, any completion order, and any number
// of redials.
type Backend struct {
	// Addr is the dispatcher's host:port.
	Addr string
	// Name labels the job in `psq list`; empty means "submit".
	Name string
	// ReconnectBackoff is the first pause before redialing a lost or
	// unreachable dispatcher; it doubles per attempt up to 15s, and a
	// completed handshake resets it. <= 0 means 250ms.
	ReconnectBackoff time.Duration
	// RedialBudget bounds how long the dispatcher may stay continuously
	// unreachable before Submit gives up with an error wrapping
	// exp.ErrBackendUnavailable; a completed handshake resets it. <= 0
	// means 30s. Serving layers set it low to detect outages quickly.
	RedialBudget time.Duration
}

// newSubmitRef returns a fresh idempotency ref for one logical submission.
func newSubmitRef() string {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a ref that
		// at least never collides within a process lifetime.
		return fmt.Sprintf("r-fallback-%p", &buf)
	}
	return "r" + hex.EncodeToString(buf[:])
}

// redialBudget applies the 30s default to a Backend's RedialBudget.
func redialBudget(budget time.Duration) time.Duration {
	if budget <= 0 {
		return defaultRedialBudget
	}
	return budget
}

// Submit implements exp.Backend.
func (b *Backend) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	name := b.Name
	if name == "" {
		name = "submit"
	}
	st := &submitState{
		req:  clientReq{Submit: &submitReq{Name: name, Env: env, Tasks: tasks, Ref: newSubmitRef()}},
		seen: make([]bool, len(tasks)),
	}
	err := redial(ctx, b.Addr, helloMsg{Role: roleClient}, b.ReconnectBackoff, redialBudget(b.RedialBudget), nil,
		func(s *session) (bool, error) { return b.stream(s, st, emit) })
	switch {
	case ctx.Err() != nil:
		return b.abandon(st.jobID, ctx.Err())
	case errors.Is(err, exp.ErrBackendUnavailable):
		return fmt.Errorf("%w (%d/%d results delivered)", err, st.emitted, len(tasks))
	}
	return err
}

// submitState carries one logical submission across redials: the request
// with its idempotency ref, which task indices already reached emit (a
// re-attach streams them again; duplicates are skipped, not errors), and
// the job ID once known.
type submitState struct {
	req     clientReq
	seen    []bool
	emitted int
	jobID   string
}

// stream submits (or, by ref, re-attaches) on one connection and streams
// results until the job ends or the connection drops. retry reports
// whether the submission should continue on a fresh connection; when
// retry is false, err is Submit's final answer.
func (b *Backend) stream(s *session, st *submitState, emit func(exp.TaskResult) error) (retry bool, err error) {
	ack, answered, err := s.roundTrip(st.req)
	if !answered || err != nil {
		return !answered, err
	}
	st.jobID = ack.Submitted
	for {
		var resp clientResp
		if err := s.read(&resp); err != nil {
			return true, fmt.Errorf("fabric: reading results: %w", err)
		}
		switch {
		case resp.Err != "":
			return false, errors.New(resp.Err)
		case resp.Result != nil:
			i := resp.Result.Index
			if i < 0 || i >= len(st.seen) {
				return false, b.abandon(st.jobID, fmt.Errorf("fabric: dispatcher streamed result for task %d of %d", i, len(st.seen)))
			}
			if st.seen[i] {
				continue // re-attach catch-up overlap: already delivered
			}
			st.seen[i] = true
			st.emitted++
			if err := emit(exp.TaskResult{Index: i, Outcome: resp.Result.Out}); err != nil {
				return false, b.abandon(st.jobID, err)
			}
		case resp.Done != nil:
			if resp.Done.Err != "" {
				return false, errors.New(resp.Done.Err)
			}
			if st.emitted != len(st.seen) {
				return false, fmt.Errorf("fabric: job done with only %d/%d results streamed", st.emitted, len(st.seen))
			}
			return false, nil
		}
	}
}

// abandon is the terminal path for a submission the client is walking away
// from mid-run (context canceled, emit failure): with a journaled
// dispatcher a disconnect alone no longer cancels the job, so the client
// cancels explicitly — best effort, on a short independent timeout — and
// returns cause.
func (b *Backend) abandon(jobID string, cause error) error {
	if jobID != "" {
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c := &Client{Addr: b.Addr}
		c.Cancel(cctx, jobID) // best effort; the job is orphaned either way
	}
	return cause
}

// Client submits detached jobs to a running dispatcher (simulate -detach)
// and lists, inspects and cancels its jobs (cmd/psq).
type Client struct {
	// Addr is the dispatcher's host:port.
	Addr string
}

// SubmitDetached registers a job that runs with no client attached: the
// dispatcher executes it to completion (filling its outcome cache), and
// `psq list` tracks its progress. Returns the job ID. It redials an
// unreachable or restarting dispatcher, resubmitting under one idempotency
// ref, for up to 30s of continuous outage (a completed handshake resets the
// clock) before it fails with an error wrapping exp.ErrBackendUnavailable.
// List, Stats and Cancel always fail fast — they are observations of a live
// dispatcher.
func (c *Client) SubmitDetached(ctx context.Context, name string, env exp.Env, tasks []exp.Task) (string, error) {
	req := clientReq{Submit: &submitReq{Name: name, Env: env, Tasks: tasks, Detach: true, Ref: newSubmitRef()}}
	var id string
	err := redial(ctx, c.Addr, helloMsg{Role: roleClient}, 0, defaultRedialBudget, nil,
		func(s *session) (bool, error) {
			resp, answered, err := s.roundTrip(req)
			if !answered || err != nil {
				return !answered, err
			}
			if resp.Submitted == "" {
				return false, fmt.Errorf("fabric: dispatcher acknowledged without a job id")
			}
			id = resp.Submitted
			return false, nil
		})
	return id, err
}

// call is one request round trip on a fresh connection, with no redial.
func (c *Client) call(ctx context.Context, req clientReq) (clientResp, error) {
	s, err := dial(ctx, c.Addr, helloMsg{Role: roleClient})
	if err != nil {
		return clientResp{}, err
	}
	defer s.close()
	resp, _, err := s.roundTrip(req)
	return resp, err
}

// List returns every job on the dispatcher in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	resp, err := c.call(ctx, clientReq{List: true})
	return resp.Jobs, err
}

// Stats fetches the dispatcher's operational counters (worker count, queue
// depth, cache hits, ...) — the transport behind `psq stats`.
func (c *Client) Stats(ctx context.Context) (StatsReply, error) {
	resp, err := c.call(ctx, clientReq{Stats: true})
	if err != nil {
		return StatsReply{}, err
	}
	if resp.Stats == nil {
		return StatsReply{}, fmt.Errorf("fabric: dispatcher answered without stats (older dispatcher binary?)")
	}
	return *resp.Stats, nil
}

// Cancel cancels a running job by ID.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, err := c.call(ctx, clientReq{Cancel: id})
	return err
}
