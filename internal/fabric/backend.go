package fabric

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/exp"
	"repro/internal/wire"
)

// Backend submits task batches to a running fabric dispatcher — the
// exp.Backend implementation behind the drivers' `-dispatcher host:port`
// flag. The submission is
// attached: results stream back on the same connection. When the
// connection drops (network blip, dispatcher restart), the backend redials
// with the workers' exponential backoff and resubmits under the same
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
	// DialTimeout bounds the dial; <= 0 means 10s.
	DialTimeout time.Duration
	// ReconnectBackoff is the initial redial delay after a lost dispatcher
	// connection; it doubles per consecutive failure up to
	// MaxReconnectBackoff. <= 0 means 250ms.
	ReconnectBackoff time.Duration
	// MaxReconnectBackoff caps the redial delay; <= 0 means 15s.
	MaxReconnectBackoff time.Duration
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

// Submit implements exp.Backend.
func (b *Backend) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	name := b.Name
	if name == "" {
		name = "submit"
	}
	backoff := b.ReconnectBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	maxBackoff := b.MaxReconnectBackoff
	if maxBackoff <= 0 {
		maxBackoff = 15 * time.Second
	}
	budget := b.RedialBudget
	if budget <= 0 {
		budget = 30 * time.Second
	}

	st := &submitState{
		ref:  newSubmitRef(),
		seen: make([]bool, len(tasks)),
	}
	delay := backoff
	var downSince time.Time
	for {
		if ctx.Err() != nil {
			return b.abandon(st.jobID, ctx.Err())
		}
		sess, err := dialFabric(ctx, b.Addr, b.DialTimeout)
		if err == nil {
			downSince = time.Time{}
			delay = backoff
			retry, serr := b.runSession(ctx, sess, st, name, env, tasks, emit)
			sess.close()
			if !retry {
				return serr
			}
			// Connection lost mid-stream: redial and re-attach by ref.
		} else {
			if errors.Is(err, errHandshakeRefused) {
				return err // permanent: version drift, never retried
			}
			if ctx.Err() != nil {
				return b.abandon(st.jobID, ctx.Err())
			}
		}
		if downSince.IsZero() {
			downSince = time.Now()
		}
		if down := time.Since(downSince); down > budget {
			return fmt.Errorf("fabric: dispatcher %s unreachable for %v with %d/%d results delivered: %w",
				b.Addr, down.Round(time.Millisecond), st.emitted, len(tasks), exp.ErrBackendUnavailable)
		}
		select {
		case <-ctx.Done():
			return b.abandon(st.jobID, ctx.Err())
		case <-time.After(delay):
		}
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// submitState carries one logical submission across redials: the
// idempotency ref, which task indices already reached emit (a re-attach
// streams them again; duplicates are skipped, not errors), and the job ID
// once known.
type submitState struct {
	ref     string
	seen    []bool
	emitted int
	jobID   string
}

// runSession submits (or, by ref, re-attaches) on one connection and
// streams results until the job ends or the connection drops. retry
// reports whether the submission should continue on a fresh connection;
// when retry is false, err is Submit's final answer.
func (b *Backend) runSession(ctx context.Context, sess *clientSession, st *submitState, name string, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) (retry bool, err error) {
	if err := sess.send(clientReq{Submit: &submitReq{Name: name, Env: env, Tasks: tasks, Ref: st.ref}}); err != nil {
		if ctx.Err() != nil {
			return false, b.abandon(st.jobID, ctx.Err())
		}
		return true, nil
	}
	for {
		var resp clientResp
		if err := sess.read(&resp); err != nil {
			if ctx.Err() != nil {
				return false, b.abandon(st.jobID, ctx.Err())
			}
			return true, nil
		}
		switch {
		case resp.Err != "":
			return false, errors.New(resp.Err)
		case resp.Result != nil:
			i := resp.Result.Index
			if i < 0 || i >= len(tasks) {
				return false, b.abandon(st.jobID, fmt.Errorf("fabric: dispatcher streamed result for task %d of %d", i, len(tasks)))
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
			if st.emitted != len(tasks) {
				return false, fmt.Errorf("fabric: job done with only %d/%d results streamed", st.emitted, len(tasks))
			}
			return false, ctx.Err()
		case resp.Submitted != "":
			st.jobID = resp.Submitted
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
		c := &Client{Addr: b.Addr, DialTimeout: b.DialTimeout}
		c.Cancel(cctx, jobID) // best effort; the job is orphaned either way
	}
	return cause
}

// Client issues psq-style control operations against a running dispatcher.
type Client struct {
	// Addr is the dispatcher's host:port.
	Addr string
	// DialTimeout bounds the dial; <= 0 means 10s.
	DialTimeout time.Duration
	// RedialBudget, when > 0, makes SubmitDetached survive an unreachable
	// or restarting dispatcher: it redials with exponential backoff for up
	// to this long, resubmitting under one idempotency ref. 0 keeps the
	// historical fail-fast behavior. List, Stats and Cancel always fail
	// fast — they are observations of a live dispatcher.
	RedialBudget time.Duration
}

// SubmitDetached registers a job that runs with no client attached: the
// dispatcher executes it to completion (filling its outcome cache), and
// `psq list` tracks its progress. Returns the job ID.
func (c *Client) SubmitDetached(ctx context.Context, name string, env exp.Env, tasks []exp.Task) (string, error) {
	req := &submitReq{Name: name, Env: env, Tasks: tasks, Detach: true}
	if c.RedialBudget <= 0 {
		return c.submitDetachedOnce(ctx, req)
	}
	req.Ref = newSubmitRef()
	delay := 250 * time.Millisecond
	start := time.Now()
	for {
		id, err := c.submitDetachedOnce(ctx, req)
		if err == nil || errors.Is(err, errHandshakeRefused) || ctx.Err() != nil {
			return id, err
		}
		if down := time.Since(start); down > c.RedialBudget {
			return "", fmt.Errorf("fabric: dispatcher %s unreachable for %v: %w",
				c.Addr, down.Round(time.Millisecond), exp.ErrBackendUnavailable)
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(delay):
		}
		if delay *= 2; delay > 15*time.Second {
			delay = 15 * time.Second
		}
	}
}

func (c *Client) submitDetachedOnce(ctx context.Context, req *submitReq) (string, error) {
	sess, err := dialFabric(ctx, c.Addr, c.DialTimeout)
	if err != nil {
		return "", err
	}
	defer sess.close()
	if err := sess.send(clientReq{Submit: req}); err != nil {
		return "", fmt.Errorf("fabric: submitting detached job: %w", err)
	}
	var resp clientResp
	if err := sess.read(&resp); err != nil {
		return "", fmt.Errorf("fabric: reading submit ack: %w", err)
	}
	if resp.Err != "" {
		return "", errors.New(resp.Err)
	}
	if resp.Submitted == "" {
		return "", fmt.Errorf("fabric: dispatcher acknowledged without a job id")
	}
	return resp.Submitted, nil
}

// List returns every job on the dispatcher in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	sess, err := dialFabric(ctx, c.Addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	if err := sess.send(clientReq{List: true}); err != nil {
		return nil, fmt.Errorf("fabric: listing jobs: %w", err)
	}
	var resp clientResp
	if err := sess.read(&resp); err != nil {
		return nil, fmt.Errorf("fabric: reading job list: %w", err)
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Jobs, nil
}

// Stats fetches the dispatcher's operational counters (worker count, queue
// depth, cache hits, ...) — the transport behind `psq stats`.
func (c *Client) Stats(ctx context.Context) (StatsReply, error) {
	sess, err := dialFabric(ctx, c.Addr, c.DialTimeout)
	if err != nil {
		return StatsReply{}, err
	}
	defer sess.close()
	if err := sess.send(clientReq{Stats: true}); err != nil {
		return StatsReply{}, fmt.Errorf("fabric: requesting stats: %w", err)
	}
	var resp clientResp
	if err := sess.read(&resp); err != nil {
		return StatsReply{}, fmt.Errorf("fabric: reading stats: %w", err)
	}
	if resp.Err != "" {
		return StatsReply{}, errors.New(resp.Err)
	}
	if resp.Stats == nil {
		return StatsReply{}, fmt.Errorf("fabric: dispatcher answered without stats (older dispatcher binary?)")
	}
	return *resp.Stats, nil
}

// Cancel cancels a running job by ID.
func (c *Client) Cancel(ctx context.Context, id string) error {
	sess, err := dialFabric(ctx, c.Addr, c.DialTimeout)
	if err != nil {
		return err
	}
	defer sess.close()
	if err := sess.send(clientReq{Cancel: id}); err != nil {
		return fmt.Errorf("fabric: canceling job %s: %w", id, err)
	}
	var resp clientResp
	if err := sess.read(&resp); err != nil {
		return fmt.Errorf("fabric: reading cancel ack: %w", err)
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// clientSession is one handshaken client connection.
type clientSession struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	watchDone chan struct{}
}

// dialFabric dials the dispatcher, completes the client handshake, and
// arranges for ctx cancellation to kill the connection (unblocking reads).
func dialFabric(ctx context.Context, addr string, timeout time.Duration) (*clientSession, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: dialing dispatcher %s: %w", addr, err)
	}
	s := &clientSession{
		conn:      conn,
		br:        bufio.NewReader(conn),
		bw:        bufio.NewWriter(conn),
		watchDone: make(chan struct{}),
	}
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-s.watchDone:
		}
	}()
	if err := s.send(helloMsg{V: protoVersion, Role: roleClient}); err != nil {
		s.close()
		return nil, fmt.Errorf("fabric: sending hello to %s: %w", addr, err)
	}
	var ack helloAck
	if err := s.read(&ack); err != nil {
		s.close()
		return nil, fmt.Errorf("fabric: reading hello ack from %s — is a fabric dispatcher (cmd/fabricd -role dispatcher) listening there?: %w", addr, err)
	}
	if !ack.OK {
		s.close()
		return nil, fmt.Errorf("%w: %s", errHandshakeRefused, ack.Err)
	}
	return s, nil
}

func (s *clientSession) send(v any) error {
	if err := wire.WriteFrame(s.bw, v); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *clientSession) read(v any) error { return wire.ReadFrame(s.br, v) }

func (s *clientSession) close() {
	close(s.watchDone)
	s.conn.Close()
}
