// Package smoke holds the polling helpers the end-to-end smoke
// binaries under scripts/ share: waiting for a daemon's address file,
// for a job to settle, for a drain to begin, and driving a spec to a
// completed result through retries.
package smoke

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

// WaitForFile polls until path exists and is non-empty (a daemon's
// -addr-file) and returns its contents.
func WaitForFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("timed out waiting for %s", path)
}

// WaitTerminal polls (rather than long-polls) a job until it reaches a
// terminal state, so an injected fault on one status read is retried
// quickly by the client policy.
func WaitTerminal(ctx context.Context, cl *client.Client, id string) (service.JobStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Job(ctx, id)
		if err != nil {
			return service.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return service.JobStatus{}, fmt.Errorf("job %s not terminal after 60s", id)
}

// WaitForDraining polls /healthz until the daemon reports draining.
func WaitForDraining(ctx context.Context, cl *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		h, err := cl.Health(ctx)
		if err == nil && h["draining"] == true {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("daemon never reported draining after SIGTERM")
}

// Attempts counts what one RunToCompletion call did.
type Attempts struct {
	Accepted int    // submits the daemon admitted
	Failed   int    // admitted jobs that ended failed
	ID       string // the accepted job whose result was returned
}

// RunToCompletion submits spec (with opts) until an admitted job ends
// done and returns its result bytes. A submit the client gives up on
// and a job that ends failed are retried. With lossy set (a replica may
// die under the job) so is a job that is lost, ends in any other state
// or whose result cannot be read; without it each of those breaks the
// invariant that accepted jobs settle, and ends the run with an error.
func RunToCompletion(ctx context.Context, cl *client.Client, spec experiments.Spec, opts client.SubmitOptions, maxSubmits int, lossy bool) ([]byte, Attempts, error) {
	var count Attempts
	var lastErr error
	for s := 0; s < maxSubmits; s++ {
		st, err := cl.Submit(ctx, spec, opts)
		if err != nil {
			lastErr = err // nothing was accepted
			continue
		}
		count.Accepted++
		id := st.ID
		if !st.State.Terminal() {
			if st, err = WaitTerminal(ctx, cl, id); err != nil {
				err = fmt.Errorf("accepted job %s lost: %v", id, err)
			}
		}
		if err == nil {
			switch st.State {
			case service.StateDone:
				res, rerr := cl.Result(ctx, id)
				if rerr == nil {
					count.ID = id
					return res, count, nil
				}
				err = fmt.Errorf("result of done job %s: %v", id, rerr)
			case service.StateFailed:
				count.Failed++
				lastErr = fmt.Errorf("job %s failed (%s)", id, st.Error)
				continue
			default:
				err = fmt.Errorf("job %s ended %s (%s)", id, st.State, st.Error)
			}
		}
		if !lossy {
			return nil, count, err
		}
		lastErr = err
	}
	return nil, count, fmt.Errorf("no success in %d submissions (last: %v)", maxSubmits, lastErr)
}
