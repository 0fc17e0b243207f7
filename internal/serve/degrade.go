package serve

// Backend-health tracking: the serving layer's graceful-degradation seam.
// When a flight fails because the compute backend is unreachable (the
// fabric client exhausted its redial budget — errors.Is on
// exp.ErrBackendUnavailable), the server opens a backend-down window with
// exponential backoff: cache hits keep serving at memory speed, but new
// computations are refused with 503 and a Retry-After derived from the
// window, instead of every miss hanging for a full redial budget. The
// first miss after the window closes is admitted as a probe; its success
// resets the backoff, its failure doubles the window.
//
// The same machinery derives the Retry-After of inflight-cap 503s: an EWMA
// of recent flight durations estimates when a computation slot will free
// up, replacing the old hardcoded "Retry-After: 1".

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/exp"
)

const (
	// backendRetryBase and backendRetryMax shape the backend-down backoff
	// window: after a flight fails with exp.ErrBackendUnavailable, new
	// computations are refused (503 + Retry-After) for backendRetryBase,
	// doubling per consecutive failure up to backendRetryMax; cache hits
	// keep serving throughout.
	backendRetryBase = 1 * time.Second
	backendRetryMax  = 60 * time.Second
	// retryAfterCap bounds any Retry-After hint we hand out; beyond this a
	// client should be polling anyway.
	retryAfterCap = 300
	// ewmaAlpha is the weight of the newest flight duration in the
	// inflight-pressure estimate.
	ewmaAlpha = 0.3
)

// noteFlightOutcome folds one finished flight into the backend-health
// state: a success closes any down window and feeds the duration EWMA; a
// backend-unavailable failure opens (or doubles) the down window. Other
// errors are deterministic task failures and say nothing about backend
// health.
func (s *Server) noteFlightOutcome(err error, took time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.backendFailures = 0
		s.backendDownUntil = time.Time{}
		sec := took.Seconds()
		if s.flightEWMA == 0 {
			s.flightEWMA = sec
		} else {
			s.flightEWMA = (1-ewmaAlpha)*s.flightEWMA + ewmaAlpha*sec
		}
		return
	}
	if !errors.Is(err, exp.ErrBackendUnavailable) {
		return
	}
	s.backendUnavail.Add(1)
	s.backendFailures++
	window := s.retryBase << (s.backendFailures - 1)
	if window > backendRetryMax || window <= 0 {
		window = backendRetryMax
	}
	s.backendDownUntil = time.Now().Add(window)
	s.opts.Logf("serve: backend unavailable (failure %d): refusing new computations for %v; cache hits keep serving", s.backendFailures, window)
}

// backendDown reports whether the down window is currently open, and if so
// for how much longer; callers must not hold s.mu.
func (s *Server) backendDown() (bool, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	left := time.Until(s.backendDownUntil)
	return left > 0, left
}

// retryAfterSeconds derives the Retry-After hint for a 503: the remainder
// of the backend-down window when one is open, else the flight-duration
// EWMA (when the 503 is inflight pressure, a slot frees up after about one
// flight). Always >= 1, capped at retryAfterCap.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	left := time.Until(s.backendDownUntil)
	ewma := s.flightEWMA
	s.mu.Unlock()
	var sec float64
	if left > 0 {
		sec = left.Seconds()
	} else {
		sec = ewma
	}
	n := int(math.Ceil(sec))
	if n < 1 {
		n = 1
	}
	if n > retryAfterCap {
		n = retryAfterCap
	}
	return n
}

// errBackendDownWindow is the refusal handed to misses while the down
// window is open; it wraps exp.ErrBackendUnavailable so handlers route it
// to 503 + Retry-After like a fresh probe failure.
func errBackendDownWindow(left time.Duration) error {
	return fmt.Errorf("serve: compute backend unreachable, retrying in %v (cache hits still served): %w",
		left.Round(time.Second), exp.ErrBackendUnavailable)
}
