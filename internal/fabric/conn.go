package fabric

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/wire"
)

// The one connection path of clients and workers: dial opens a connection
// and completes the hello, and redial repeats dial-then-serve with one set
// of backoff rules until the caller has a final answer.
const (
	// dialTimeout bounds one TCP dial.
	dialTimeout = 5 * time.Second
	// redialBackoff is the default first pause before a redial. The pause
	// doubles after each attempt up to maxRedialBackoff, and a completed
	// handshake resets it.
	redialBackoff    = 250 * time.Millisecond
	maxRedialBackoff = 15 * time.Second
	// defaultRedialBudget is what a Backend RedialBudget <= 0 means, and
	// the budget of every detached submit.
	defaultRedialBudget = 30 * time.Second
)

// errHandshakeRefused marks a dispatcher's refusal (version or env drift) —
// a permanent condition the redial loop must not retry into.
var errHandshakeRefused = errors.New("fabric: dispatcher refused handshake")

// session is one handshaken connection to the dispatcher, a client's or a
// worker's.
type session struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex // a worker's heartbeats and results share bw
	bw   *bufio.Writer
	done chan struct{}
}

// dial connects to the dispatcher at addr and completes the hello
// handshake; a refused hello wraps errHandshakeRefused. Until close, ctx
// cancellation closes the connection, which unblocks any read on it.
func dial(ctx context.Context, addr string, hello helloMsg) (*session, error) {
	dialer := net.Dialer{Timeout: dialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: dialing dispatcher %s: %w", addr, err)
	}
	s := &session{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		done: make(chan struct{}),
	}
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-s.done:
		}
	}()
	hello.V = protoVersion
	if err := s.send(hello); err != nil {
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

// send writes and flushes one frame.
func (s *session) send(v any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := wire.WriteFrame(s.bw, v); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) read(v any) error { return wire.ReadFrame(s.br, v) }

func (s *session) close() {
	close(s.done)
	s.conn.Close()
}

// roundTrip sends one client request and reads the dispatcher's answer.
// answered is false when the connection failed first; otherwise err is the
// dispatcher's refusal, if the answer carries one.
func (s *session) roundTrip(req clientReq) (resp clientResp, answered bool, err error) {
	if err := s.send(req); err != nil {
		return resp, false, fmt.Errorf("fabric: sending request: %w", err)
	}
	if err := s.read(&resp); err != nil {
		return resp, false, fmt.Errorf("fabric: reading answer: %w", err)
	}
	if resp.Err != "" {
		return resp, true, errors.New(resp.Err)
	}
	return resp, true, nil
}

// redial dials the dispatcher at addr with hello and runs serve on each
// handshaken connection until serve reports a final answer (retry false),
// which redial returns. A refused handshake and ctx's end are final too.
// Between attempts it pauses backoff (<= 0 means redialBackoff), doubling
// per attempt up to maxRedialBackoff; a completed handshake resets the
// pause and the outage clock. With budget > 0, an outage longer than
// budget fails with exp.ErrBackendUnavailable; budget <= 0 redials until
// ctx ends. logf, when non-nil, reports each attempt that failed.
func redial(ctx context.Context, addr string, hello helloMsg, backoff, budget time.Duration,
	logf func(format string, args ...any), serve func(*session) (retry bool, err error)) error {
	if backoff <= 0 {
		backoff = redialBackoff
	}
	delay := backoff
	var downSince time.Time
	for {
		s, err := dial(ctx, addr, hello)
		if err == nil {
			var retry bool
			retry, err = serve(s)
			s.close()
			if !retry {
				return err
			}
			delay, downSince = backoff, time.Time{}
		} else if errors.Is(err, errHandshakeRefused) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if downSince.IsZero() {
			downSince = time.Now()
		}
		if down := time.Since(downSince); budget > 0 && down > budget {
			return fmt.Errorf("fabric: dispatcher %s unreachable for %v (last error: %v): %w",
				addr, down.Round(time.Millisecond), err, exp.ErrBackendUnavailable)
		}
		if logf != nil {
			logf("fabric %s %s: session ended: %v (redial in %v)", hello.Role, hello.Name, err, delay)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		delay = min(2*delay, maxRedialBackoff)
	}
}
