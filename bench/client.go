package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve"
)

// job is one submission of a workload's frozen job list.
type job struct {
	// key indexes the job across rounds: timings are reduced to the
	// minimum per key before anything is aggregated across jobs.
	key int
	// golden names the job's expected outcome in golden.json ("" when the
	// workload checks it against a reference captured in the same run).
	golden string
	spec   serve.JobSpec
}

// outcome is what a client saw of one job: when, and what came back.
type outcome struct {
	id string
	// Seconds since the job's submit instant; NaN when never observed.
	firstPoint, toTarget, wall float64
	// points are the streamed curve points in arrival order.
	points   []curvePoint
	terminal bool
	err      error
	// evs are the raw events, kept only when the traced run asks.
	evs  []events.Event
	recv []time.Time
	// hook, when set, sees every event as it arrives.
	hook func(events.Event)
	// t0 is the client's clock just before the submit, submitted the
	// server's accept time and submitSeconds how long the POST took.
	t0, submitted time.Time
	submitSeconds float64
}

// curvePoint is the deterministic part of a streamed curve point (the
// cumulative evaluation time is wall clock and differs run to run).
type curvePoint struct {
	evaluations, cumBudget int
	best                   float64
}

func newOutcome() *outcome {
	return &outcome{firstPoint: math.NaN(), toTarget: math.NaN(), wall: math.NaN()}
}

// api is the HTTP client side of the benchmark.
type api struct {
	http *http.Client
	// keepEvents retains every streamed event with its receive time.
	keepEvents bool
	// serverClock times curve points by the server's event timestamp
	// instead of the client's receive time. crash-recover needs it: the
	// recovered jobs start before the daemon's listener is up, so a
	// client cannot be subscribed when their first points are published.
	// Both clocks are the same host's.
	serverClock bool
}

func (a *api) postJSON(url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := a.http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (a *api) getJSON(url string, out any) error {
	resp, err := a.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (a *api) getBytes(url string) ([]byte, error) {
	resp, err := a.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// submit posts one spec and returns the accepted job's snapshot.
func (a *api) submit(base string, spec serve.JobSpec) (serve.Snapshot, error) {
	var snap serve.Snapshot
	err := a.postJSON(base+"/jobs", spec, &snap)
	return snap, err
}

// submitBatch posts specs atomically through POST /jobs:batch.
func (a *api) submitBatch(base string, specs []serve.JobSpec) ([]serve.Snapshot, error) {
	var out struct {
		Jobs []serve.Snapshot `json:"jobs"`
	}
	err := a.postJSON(base+"/jobs:batch", map[string]any{"jobs": specs}, &out)
	if err == nil && len(out.Jobs) != len(specs) {
		err = fmt.Errorf("batch of %d accepted %d", len(specs), len(out.Jobs))
	}
	return out.Jobs, err
}

// follow reads GET /jobs/{id}/events until the server closes the stream
// (it does so after the terminal event), filling o. t0 is the instant the
// job's timings count from; target is the incumbent score that stops the
// time-to-target clock.
func (a *api) follow(base, id string, t0 time.Time, target float64, o *outcome) {
	o.id = id
	resp, err := a.http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("GET events of %s: %s", id, resp.Status)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		now := time.Now()
		var ev events.Event
		if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
			o.err = fmt.Errorf("decoding event of %s: %w", id, err)
			return
		}
		at := now
		if a.serverClock {
			at = ev.Time
		}
		if a.keepEvents {
			o.evs = append(o.evs, ev)
			o.recv = append(o.recv, now)
		}
		if o.hook != nil {
			o.hook(ev)
		}
		switch ev.Type {
		case events.TypeCurvePoint:
			if ev.Point == nil {
				continue
			}
			since := at.Sub(t0).Seconds()
			if len(o.points) == 0 {
				o.firstPoint = since
			}
			if math.IsNaN(o.toTarget) && ev.Point.BestScore >= target {
				o.toTarget = since
			}
			o.points = append(o.points, curvePoint{ev.Point.Evaluations, ev.Point.CumBudget, ev.Point.BestScore})
		case events.TypeStatus:
			if ev.Terminal {
				o.terminal = true
				o.wall = at.Sub(t0).Seconds()
			}
		}
	}
	if err := sc.Err(); err != nil {
		o.err = fmt.Errorf("event stream of %s: %w", id, err)
		return
	}
	if !o.terminal {
		o.err = fmt.Errorf("event stream of %s ended before a terminal event", id)
		return
	}
	if !a.serverClock {
		// The user-visible end of a job is the stream closing.
		o.wall = time.Since(t0).Seconds()
	}
}

// list fetches GET /jobs and indexes the snapshots by ID.
func (a *api) list(base string) (map[string]serve.Snapshot, error) {
	var snaps []serve.Snapshot
	if err := a.getJSON(base+"/jobs", &snaps); err != nil {
		return nil, err
	}
	out := make(map[string]serve.Snapshot, len(snaps))
	for _, s := range snaps {
		out[s.ID] = s
	}
	return out, nil
}
