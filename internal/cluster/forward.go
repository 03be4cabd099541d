// The HTTP peer protocol. Two endpoints, both served by the proxy:
//
//   - POST /__ceres/peer/rewrite — the forwarding path. Body is the
//     raw script source; ModeHeader and ClassHeader carry the
//     instrumentation mode and latency class (a forwarded interactive
//     request stays interactive at the owner); HopHeader marks the
//     request as already forwarded, and the receiver always serves a
//     hopped request locally — single-hop loop prevention. 200 returns
//     the rewritten bytes, 429 means the owner's admission queue shed
//     the request (retryable), 422 means the script does not rewrite
//     (terminal: the same parse would fail locally too).
//     A prewarm source owned elsewhere reaches its owner the same way,
//     at batch class: the fleet has one peer rewrite message.
//   - GET /__ceres/peer/ping — the health probe.
//
// Errors are classified for the caller: Retryable errors (network,
// timeout, 429, 5xx — exhausted after ForwardRetries attempts with
// capped exponential backoff) mean the caller may serve the key
// locally instead — availability beats strict ownership — while
// ErrRewriteFailed means the source itself is broken and must be
// served un-instrumented. A 429 is a busy owner, not a dead one: it
// never counts toward ejection.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/instrument"
	"repro/internal/sched"
)

// Peer-protocol headers and paths.
const (
	// HopHeader marks a request already forwarded once. A node
	// receiving it must serve locally, never re-forward.
	HopHeader = "X-Ceres-Peer-Hop"
	// ModeHeader carries the instrumentation mode of a forwarded
	// rewrite; the owner refuses a mismatch (mixed-mode fleets are a
	// config error, not a runtime choice).
	ModeHeader = "X-Ceres-Mode"
	// ClassHeader carries the sched.Class name of a forwarded rewrite,
	// so interactive work stays interactive at the owner.
	ClassHeader = "X-Ceres-Class"

	// PeerRewritePath and PeerPingPath are the peer-protocol routes.
	PeerRewritePath = "/__ceres/peer/rewrite"
	PeerPingPath    = "/__ceres/peer/ping"
)

// ErrRewriteFailed is wrapped by Forward when the owner reports the
// script itself failed to rewrite (HTTP 422): terminal, not
// retryable — the caller serves the original source un-instrumented,
// exactly as a local rewrite failure.
var ErrRewriteFailed = errors.New("cluster: peer rewrite failed")

// retryableError marks forwarding failures the caller may recover
// from by retrying or serving locally. busy marks a 429: the owner is
// alive and shedding load, so the failure is not held against it.
type retryableError struct {
	err  error
	busy bool
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Retryable reports whether a Forward error is transient (peer down,
// timeout, saturated): the request was never serviced and the caller
// may serve the key locally. Terminal errors (ErrRewriteFailed,
// protocol mismatches) mean retrying elsewhere cannot help.
func Retryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// ParseClass maps a ClassHeader value back to a sched.Class; unknown
// or empty values default to interactive (the conservative read: never
// demote a request you cannot classify).
func ParseClass(name string) sched.Class {
	if name == sched.ClassBatch.String() {
		return sched.ClassBatch
	}
	return sched.ClassInteractive
}

// Forward sends one rewrite to its owning peer and returns the
// rewritten bytes and the queue wait the owner reported. Attempts are
// bounded by ForwardTimeout each and retried ForwardRetries times on
// retryable failure with capped exponential backoff; an exhausted
// failure also counts toward the peer's ejection threshold, so a dead
// owner is ejected by the traffic that discovers it, not just the
// next probe tick — unless the last answer was a 429: a saturated
// owner degrades to a retryable error, never to ring churn.
func (n *Node) Forward(ctx context.Context, peer string, src []byte, mode instrument.Mode, class sched.Class) ([]byte, time.Duration, error) {
	n.forwarded.Add(1)
	var lastErr error
	for attempt := 0; attempt <= n.cfg.ForwardRetries; attempt++ {
		if attempt > 0 {
			n.fwdRetries.Add(1)
			if err := sleepCtx(ctx, backoff(attempt)); err != nil {
				lastErr = &retryableError{err: err}
				break
			}
		}
		body, wait, err := n.forwardOnce(ctx, peer, src, mode, class)
		if err == nil {
			n.reportPeerSuccess(peer)
			return body, wait, nil
		}
		lastErr = err
		if !Retryable(err) {
			// Terminal protocol answer: the peer is alive and said no.
			n.reportPeerSuccess(peer)
			return nil, 0, err
		}
	}
	n.fwdErrors.Add(1)
	var re *retryableError
	if !errors.As(lastErr, &re) || !re.busy {
		n.reportPeerFailure(peer)
	}
	return nil, 0, lastErr
}

// backoff is the delay before retry `attempt` (1-based): 5ms, 10ms,
// 20ms, ... capped at 100ms — long enough to ride out a hiccup, short
// enough that an interactive request's fallback is still interactive.
func backoff(attempt int) time.Duration {
	d := 5 * time.Millisecond << (attempt - 1)
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// forwardOnce is one attempt against the peer rewrite endpoint.
func (n *Node) forwardOnce(ctx context.Context, peer string, src []byte, mode instrument.Mode, class sched.Class) ([]byte, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+PeerRewritePath, bytes.NewReader(src))
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: forward request: %w", err)
	}
	req.Header.Set("Content-Type", "application/javascript")
	req.Header.Set(HopHeader, "1")
	req.Header.Set(ModeHeader, mode.String())
	req.Header.Set(ClassHeader, class.String())
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, 0, &retryableError{err: fmt.Errorf("cluster: forward to %s: %w", peer, err)}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, 0, &retryableError{err: fmt.Errorf("cluster: forward to %s: read: %w", peer, err)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var wait time.Duration
		if v := resp.Header.Get(QueueWaitHeader); v != "" {
			if us, perr := strconv.ParseInt(v, 10, 64); perr == nil {
				wait = time.Duration(us) * time.Microsecond
			}
		}
		return body, wait, nil
	case resp.StatusCode == http.StatusUnprocessableEntity:
		return nil, 0, fmt.Errorf("%w: %s", ErrRewriteFailed, strings.TrimSpace(string(body)))
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return nil, 0, &retryableError{
			err:  fmt.Errorf("cluster: forward to %s: status %d", peer, resp.StatusCode),
			busy: resp.StatusCode == http.StatusTooManyRequests,
		}
	default:
		// 4xx protocol mismatch (mode conflict, bad route): terminal —
		// the caller serves locally, and retrying cannot fix config.
		return nil, 0, fmt.Errorf("cluster: forward to %s: status %d: %s", peer, resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// QueueWaitHeader mirrors proxy.QueueWaitHeader (the package cannot
// import internal/proxy — the proxy imports cluster).
const QueueWaitHeader = "X-Ceres-Queue-Wait"

// maxPeerBody bounds a peer response (same order as the proxy's own
// script limits).
const maxPeerBody = 8 << 20

// ping is the health probe: GET /__ceres/peer/ping, any 2xx is alive.
func (n *Node) ping(peer string) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+PeerPingPath, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: ping %s: status %d", peer, resp.StatusCode)
	}
	return nil
}
