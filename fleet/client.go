package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"syscall"
	"time"
)

// Client talks to a fleetd job API over HTTP. The zero HTTPClient uses
// http.DefaultClient; the zero Retry never retries.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8480".
	Base string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Retry is the transient-failure policy applied to every request.
	Retry RetryPolicy
}

// RetryPolicy is a bounded jittered-exponential-backoff budget for
// transient failures: requests the server provably never processed (dial
// failures, connection refused) and explicit backpressure responses (429
// queue-full, 503 draining). Anything else — including mid-request
// connection drops, where a submission may have landed — is never retried,
// so a retry can't double-submit jobs.
type RetryPolicy struct {
	// Max is how many retries follow the first attempt (0 = none).
	Max int
	// Base is the first backoff step (default 50ms); successive steps
	// double, with equal-spread jitter in [step/2, step].
	Base time.Duration
	// Cap bounds a single backoff step (default 2s).
	Cap time.Duration
}

func (p RetryPolicy) delay(attempt int) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	step := base << attempt
	if step <= 0 || step > cap {
		step = cap
	}
	return step/2 + rand.N(step/2+1)
}

// statusError is a non-200 API response; 429/503 mark server backpressure
// and are safe to retry (the job list was rejected, not admitted).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable classifies errors the retry budget may spend itself on.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true // the request never left this machine
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// NewClient returns a client for the given server root.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request under the retry policy.
func (c *Client) do(method, path string, body, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(method, path, body, out)
		if err == nil || attempt >= c.Retry.Max || !retryable(err) {
			return err
		}
		time.Sleep(c.Retry.delay(attempt))
	}
}

// doOnce issues one request and decodes the JSON response into out (when
// non-nil).
func (c *Client) doOnce(method, path string, body, out any) error {
	resp, err := c.send(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// send issues one request and returns the 200 response, body unread; any
// other status becomes a statusError.
func (c *Client) send(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	// A failed read leaves no error message; the status line stands in.
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return nil, &statusError{code: resp.StatusCode, msg: fmt.Sprintf("fleetd: %s", e.Error)}
	}
	return nil, &statusError{code: resp.StatusCode,
		msg: fmt.Sprintf("fleetd: %s %s: %s", method, path, resp.Status)}
}

// Submit enqueues jobs and returns their IDs.
func (c *Client) Submit(specs []JobSpec) ([]uint64, error) {
	var resp struct {
		IDs []uint64 `json:"ids"`
	}
	if err := c.do(http.MethodPost, "/jobs", specs, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Job fetches one job's status.
func (c *Client) Job(id uint64) (JobStatus, error) {
	var st JobStatus
	err := c.do(http.MethodGet, fmt.Sprintf("/jobs/%d", id), nil, &st)
	return st, err
}

// Jobs fetches every job's status, in submission order.
func (c *Client) Jobs() ([]JobStatus, error) {
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := c.do(http.MethodGet, "/jobs", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do(http.MethodGet, "/stats", nil, &st)
	return st, err
}

// Shutdown asks the server process to exit.
func (c *Client) Shutdown() error {
	return c.do(http.MethodPost, "/shutdown", nil, nil)
}

// Ready asks the server whether it should receive traffic (GET /readyz).
func (c *Client) Ready() error {
	return c.doOnce(http.MethodGet, "/readyz", nil, nil)
}

// WaitReady polls /readyz until the server reports ready or the timeout
// elapses, absorbing connection failures while the process is still coming
// up — the startup barrier behind fleetctl -wait-ready.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	poll := 10 * time.Millisecond
	for {
		err := c.Ready()
		if err == nil {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("fleetd: not ready after %v: %w", timeout, err)
		}
		time.Sleep(poll)
		if poll < 250*time.Millisecond {
			poll *= 2
		}
	}
}

// WaitAll polls until every submitted job reaches a terminal state and
// returns the final statuses; it fails once the timeout elapses. Poll
// errors inside the window are tolerated — the server may be mid-restart
// after a crash — and only surface if they persist to the deadline.
func (c *Client) WaitAll(timeout, poll time.Duration) ([]JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := c.Jobs()
		if err != nil {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("fleetd: unreachable at wait deadline: %w", err)
			}
			time.Sleep(poll)
			continue
		}
		pending := 0
		for _, j := range jobs {
			if j.State != JobDone.String() && j.State != JobFailed.String() {
				pending++
			}
		}
		if pending == 0 {
			return jobs, nil
		}
		if time.Now().After(deadline) {
			return jobs, fmt.Errorf("fleetd: %d of %d jobs still pending after %v",
				pending, len(jobs), timeout)
		}
		time.Sleep(poll)
	}
}

// Telemetry subscribes to a job's live MAVLink stream (GET
// /jobs/{id}/telemetry). It returns once the server has attached the
// subscriber; the body yields whole frames until the job finishes (EOF).
// Close it to unsubscribe.
func (c *Client) Telemetry(id uint64) (io.ReadCloser, error) {
	resp, err := c.send(http.MethodGet, fmt.Sprintf("/jobs/%d/telemetry", id), nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}
