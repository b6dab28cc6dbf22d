package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/trace"
)

// watchMain is the `bhpo watch <job-url>` entry point: it subscribes to
// a bhpod job's SSE event feed and renders a live incumbent ticker —
// one line per evaluation with the running best, plus rung promotions,
// retries, deadline abandonments and failure-budget charges as they
// happen — then prints the final snapshot when the job reaches a
// terminal state. Dropped connections resume via Last-Event-ID, so the
// ticker never misses or repeats an event.
//
// Exit code: 0 when the job finished (done), 1 when it failed or the
// watch itself errored, 2 when it was cancelled.
func watchMain(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		after   = fs.Uint64("after", 0, "resume after this event sequence number (0 = from the start)")
		retries = fs.Int("retries", 8, "consecutive failed (re)connect attempts before giving up")
		quiet   = fs.Bool("quiet", false, "only print lifecycle transitions and the final summary")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bhpo watch [flags] <job-url>")
		fmt.Fprintln(fs.Output(), "  job-url is a bhpod job, e.g. http://localhost:8149/jobs/job-1")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 1
	}
	// Ctrl-C stops the watch cleanly; the job itself keeps running
	// server-side (use DELETE /jobs/{id} to cancel it).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	status, err := watchJob(ctx, http.DefaultClient, fs.Arg(0), watchOptions{
		After:   *after,
		Retries: *retries,
		Quiet:   *quiet,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpo watch:", err)
		return 1
	}
	switch status {
	case "done":
		return 0
	case "cancelled":
		return 2
	default:
		return 1
	}
}

// watchOptions tunes watchJob.
type watchOptions struct {
	// After resumes the feed past this sequence number.
	After uint64
	// Retries bounds consecutive failed connection attempts (a delivered
	// event resets the count). <=0 selects 8.
	Retries int
	// Quiet suppresses the per-evaluation ticker.
	Quiet bool
}

// watchJob consumes the job's SSE feed until the terminal event, then
// fetches and prints the final snapshot. It returns the job's terminal
// status ("done", "failed", "cancelled").
func watchJob(ctx context.Context, client *http.Client, jobURL string, opts watchOptions, w io.Writer) (string, error) {
	u, err := url.Parse(jobURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("invalid job URL %q", jobURL)
	}
	if opts.Retries <= 0 {
		opts.Retries = 8
	}
	eventsURL := strings.TrimSuffix(jobURL, "/") + "/events"
	t := &ticker{w: w, quiet: opts.Quiet}
	last := opts.After
	fails := 0
	for {
		prev := last
		terminal, retryable, err := streamEvents(ctx, client, eventsURL, &last, t)
		if terminal {
			break
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if !retryable {
			// A definitive refusal (unknown job, bad request): retrying
			// would only repeat it.
			return "", err
		}
		if last > prev {
			// The connection made progress before dropping; only
			// *consecutive* fruitless attempts count against the cap.
			fails = 0
		}
		fails++
		if fails > opts.Retries {
			if err == nil {
				err = errors.New("stream ended before the job finished")
			}
			return "", fmt.Errorf("giving up after %d attempts: %w", fails, err)
		}
		// Jitter-free doubling is fine here: a single client resuming a
		// single feed, capped well below anything thundering.
		backoff := 250 * time.Millisecond << min(fails-1, 4)
		if !opts.Quiet {
			fmt.Fprintf(w, "-- reconnecting after seq %d (attempt %d)\n", last, fails)
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	return finalSummary(ctx, client, jobURL, t, w)
}

// streamEvents runs one SSE connection, rendering events as they
// arrive. It reports whether the job's terminal event was seen and, when
// it was not, whether the failure is worth retrying: transport errors and
// gateway/overload statuses (429, 502, 503, 504) are the transient shapes
// a cluster failover or an overloaded node produces — the caller resumes
// from *last with backoff, exactly as for a dropped connection. Anything
// else non-200 (404 unknown job, 400) is definitive and fails fast.
func streamEvents(ctx context.Context, client *http.Client, eventsURL string, last *uint64, t *ticker) (terminal, retryable bool, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, eventsURL, nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		err := fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return false, true, err
		}
		return false, false, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // keepalive ping
			}
			var ev events.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				// A torn frame mid-drop: reconnect and resume past *last.
				return false, true, fmt.Errorf("decoding event: %w", err)
			}
			data = nil
			if ev.Seq <= *last {
				continue
			}
			*last = ev.Seq
			t.render(ev)
			if ev.Terminal {
				return true, false, nil
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// id:/event: lines and comments; the payload repeats both.
		}
	}
	return false, true, sc.Err()
}

// ticker renders the live feed, keeping the incumbent curve so each
// line can show a sparkline of progress so far.
type ticker struct {
	w     io.Writer
	quiet bool
	curve []trace.Point
}

func (t *ticker) render(ev events.Event) {
	switch ev.Type {
	case events.TypeCurvePoint:
		if ev.Point == nil {
			return
		}
		t.curve = append(t.curve, *ev.Point)
		if t.quiet {
			return
		}
		p := *ev.Point
		fmt.Fprintf(t.w, "%4d  budget %-8d best %.4f  %s\n",
			p.Evaluations, p.CumBudget, p.BestScore, trace.Sparkline(t.curve, 30))
	case events.TypeRung:
		if !t.quiet {
			fmt.Fprintf(t.w, "-- rung %d: promoted to budget %d\n", ev.Round, ev.Budget)
		}
	case events.TypeDeadline:
		if !t.quiet {
			fmt.Fprintf(t.w, "-- evaluation abandoned at deadline (budget %d)\n", ev.Budget)
		}
	case events.TypeFailure:
		if !t.quiet {
			fmt.Fprintf(t.w, "-- failure budget charged: %d failures (%s)\n", ev.Failures, ev.Reason)
		}
	case events.TypeStatus:
		line := fmt.Sprintf("== %s", ev.Status)
		if ev.Reason != "" {
			line += " (" + ev.Reason + ")"
		}
		if ev.Error != "" {
			line += ": " + ev.Error
		}
		fmt.Fprintln(t.w, line)
	}
}

// watchSnapshot is the slice of the job snapshot the final summary
// needs; the full schema lives in internal/serve.
type watchSnapshot struct {
	Status      string         `json:"status"`
	Reason      string         `json:"reason"`
	Error       string         `json:"error"`
	Evaluations int            `json:"evaluations"`
	BestConfig  map[string]any `json:"best_config"`
	BestScore   *float64       `json:"best_score"`
	TestScore   *float64       `json:"test_score"`
	Sparkline   string         `json:"sparkline"`
}

// finalSummary fetches the job's terminal snapshot and prints it.
func finalSummary(ctx context.Context, client *http.Client, jobURL string, t *ticker, w io.Writer) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fetching final snapshot: %s", resp.Status)
	}
	var snap watchSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return "", fmt.Errorf("decoding final snapshot: %w", err)
	}
	fmt.Fprintf(w, "\njob %s", snap.Status)
	if snap.Reason != "" {
		fmt.Fprintf(w, " (%s)", snap.Reason)
	}
	fmt.Fprintf(w, ": %d evaluations\n", snap.Evaluations)
	if snap.Error != "" {
		fmt.Fprintf(w, "error: %s\n", snap.Error)
	}
	if snap.BestScore != nil {
		fmt.Fprintf(w, "best score: %.4f\n", *snap.BestScore)
	}
	if snap.TestScore != nil {
		fmt.Fprintf(w, "test score: %.4f\n", *snap.TestScore)
	}
	if len(snap.BestConfig) > 0 {
		cfg, _ := json.Marshal(snap.BestConfig)
		fmt.Fprintf(w, "best config: %s\n", cfg)
	}
	if snap.Sparkline != "" {
		fmt.Fprintf(w, "curve: %s\n", snap.Sparkline)
	}
	return snap.Status, nil
}
