// Package serviceclient is the Go client for the microserved measurement
// service: Submit a spec, Stream its live progress, Wait for the terminal
// state, and fetch the final Result. All calls honour context
// cancellation, and transient failures — transport errors, over_quota
// (429), draining (503) — are wrapped in the repository's fault taxonomy
// so callers (and the built-in retry loop) classify them with
// faults.IsTransient.
package serviceclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	api "microtools/api/v1"
	"microtools/internal/faults"
)

// Client talks to one microserved base URL (e.g. "http://127.0.0.1:8080").
type Client struct {
	// Base is the server root, without the /v1 prefix.
	Base string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Retries is how many times transient failures are re-attempted on
	// top of the first try (0 = no retries).
	Retries int
	// Backoff is the pause between attempts (0 = 250ms), doubled each
	// retry.
	Backoff time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// retry runs fn up to 1+Retries times, backing off between attempts while
// the failure classifies as transient under faults.IsTransient.
func (c *Client) retry(ctx context.Context, fn func() error) error {
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || attempt >= c.Retries || !faults.IsTransient(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// decodeError turns a non-2xx response into an error: the wire api.Error
// when the body parses (preserved for errors.As), a plain error
// otherwise. Over-quota and draining responses are marked transient.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e api.Error
	var err error
	if json.Unmarshal(body, &e) == nil && e.Code != "" {
		err = &e
	} else {
		err = fmt.Errorf("serviceclient: server returned %s", resp.Status)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return faults.Transient(err)
	}
	return err
}

// Submit posts the job request and returns the accepted status. Transport
// errors before a response are transient (the POST never reached the
// server, so retrying cannot double-submit); over-quota and draining
// rejections are transient too and retried under the client's budget.
func (c *Client) Submit(ctx context.Context, req api.JobRequest) (api.JobStatus, error) {
	if req.SchemaVersion == "" {
		req.SchemaVersion = api.SchemaVersion
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("serviceclient: encode request: %w", err)
	}
	var status api.JobStatus
	err = c.retry(ctx, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/v1/jobs"), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.httpClient().Do(hreq)
		if err != nil {
			return faults.Transient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return decodeError(resp)
		}
		return json.NewDecoder(resp.Body).Decode(&status)
	})
	return status, err
}

// Result fetches the job's result document (status always, serving stats
// and campaign payload once finished).
func (c *Client) Result(ctx context.Context, id string) (api.JobResult, error) {
	var out api.JobResult
	err := c.retry(ctx, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id), nil)
		if err != nil {
			return err
		}
		resp, err := c.httpClient().Do(hreq)
		if err != nil {
			return faults.Transient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		return decodeResult(resp.Body, &out)
	})
	return out, err
}

// decodeResult decodes a result body into out. The body is read whole and
// handed to the wire codec's one-pass UnmarshalJSON, which skips
// json.Decoder's two validation scans; a body that is not exactly one
// JSON document goes through json.Decoder, which decodes its first value
// and ignores what follows.
func decodeResult(body io.Reader, out *api.JobResult) error {
	doc, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	if out.UnmarshalJSON(doc) == nil {
		return nil
	}
	*out = api.JobResult{}
	return json.NewDecoder(bytes.NewReader(doc)).Decode(out)
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	switch state {
	case api.StateDone, api.StateFailed, api.StateRejected, api.StateInterrupted:
		return true
	}
	return false
}

// Stream follows the job's SSE event feed, invoking fn for every event in
// sequence order until the stream ends (terminal event), fn returns an
// error, or ctx is canceled. Dropped connections resume transparently
// from the last seen event id, so fn observes strictly increasing Seq
// values with no gaps even across reconnects.
func (c *Client) Stream(ctx context.Context, id string, fn func(api.VariantEvent) error) error {
	var last int64
	for {
		done, err := c.streamOnce(ctx, id, &last, fn)
		if done || err != nil {
			return err
		}
		// The connection dropped mid-stream: back off briefly, resume
		// from the last seen id.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// streamOnce runs one SSE connection. done reports a clean terminal end.
func (c *Client) streamOnce(ctx context.Context, id string, last *int64, fn func(api.VariantEvent) error) (bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return false, err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	if *last > 0 {
		hreq.Header.Set("Last-Event-ID", fmt.Sprintf("%d", *last))
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, nil // reconnect
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	dec := newSSEDecoder(resp.Body)
	for {
		frame, err := dec.next()
		if err != nil {
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			return false, nil // dropped connection: reconnect
		}
		var ev api.VariantEvent
		if ev.UnmarshalJSON(frame.data) != nil {
			continue
		}
		if ev.Seq <= *last {
			continue // duplicate across a reconnect race
		}
		*last = ev.Seq
		if err := fn(ev); err != nil {
			return true, err
		}
		if ev.Type == api.EventEnd {
			return true, nil
		}
	}
}

// Wait blocks until the job reaches a terminal state, following the event
// stream (with polling as backstop) and returning the final status.
func (c *Client) Wait(ctx context.Context, id string) (api.JobStatus, error) {
	var final api.JobStatus
	err := c.Stream(ctx, id, func(ev api.VariantEvent) error {
		final = ev.Status
		return nil
	})
	if err != nil {
		return final, err
	}
	if !terminal(final.State) {
		// The stream ended without a terminal frame (e.g. server
		// restarted): fall back to one status poll.
		res, err := c.Result(ctx, id)
		if err != nil {
			return final, err
		}
		final = res.Job
	}
	return final, nil
}

// ErrJobFailed is returned by WaitResult for failed or rejected jobs (the
// job's wire error is attached via %w when present).
var ErrJobFailed = errors.New("serviceclient: job did not complete")

// WaitResult is Submit's natural continuation: wait for the terminal
// state and fetch the full result, failing loudly unless the job is done.
func (c *Client) WaitResult(ctx context.Context, id string) (api.JobResult, error) {
	status, err := c.Wait(ctx, id)
	if err != nil {
		return api.JobResult{}, err
	}
	if status.State != api.StateDone {
		if status.Error != nil {
			return api.JobResult{}, fmt.Errorf("%w: job %s is %s: %w", ErrJobFailed, id, status.State, status.Error)
		}
		return api.JobResult{}, fmt.Errorf("%w: job %s is %s", ErrJobFailed, id, status.State)
	}
	return c.Result(ctx, id)
}
