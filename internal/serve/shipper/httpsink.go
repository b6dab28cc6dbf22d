package shipper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// shipErrHeader carries the receiver's named error class back to the
// HTTPSink so errors.Is keeps working across the wire.
const shipErrHeader = "X-Ship-Error"

const (
	shipErrOffset   = "offset_mismatch"
	shipErrChecksum = "checksum_mismatch"
)

// HTTPSink pushes shipped files to a peer node's /ship/ receiver — the
// peer-node sink. Every node namespaces its files under its own name, so
// one receiver can hold replicas for a whole cluster.
type HTTPSink struct {
	base   string // e.g. http://peer:8149/ship
	node   string
	client *http.Client
}

// NewHTTPSink returns a sink pushing node's files to the receiver at
// base (the mount point of a Receiver, e.g. "http://peer:8149/ship").
// A nil client selects a default with a 10s timeout.
func NewHTTPSink(base, node string, client *http.Client) (*HTTPSink, error) {
	if _, err := url.Parse(base); err != nil || base == "" {
		return nil, fmt.Errorf("shipper: bad sink URL %q", base)
	}
	if err := ValidNode(node); err != nil {
		return nil, fmt.Errorf("shipper: %w", err)
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPSink{base: strings.TrimSuffix(base, "/"), node: node, client: client}, nil
}

// endpoint builds one receiver URL.
func (h *HTTPSink) endpoint(op, name string, extra url.Values) string {
	v := url.Values{"name": {name}}
	for k, vals := range extra {
		v[k] = vals
	}
	return h.base + "/" + h.node + "/" + op + "?" + v.Encode()
}

// decodeErr maps a receiver error response to the named sentinel errors.
func decodeErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	msg := strings.TrimSpace(string(body))
	switch resp.Header.Get(shipErrHeader) {
	case shipErrOffset:
		return fmt.Errorf("shipper: peer: %s: %w", msg, ErrOffsetMismatch)
	case shipErrChecksum:
		return fmt.Errorf("shipper: peer: %s: %w", msg, ErrChecksumMismatch)
	}
	return fmt.Errorf("shipper: peer: %s: %s", resp.Status, msg)
}

// Offset implements Sink.
func (h *HTTPSink) Offset(name string) (int64, error) {
	resp, err := h.client.Get(h.endpoint("offset", name, nil))
	if err != nil {
		return 0, fmt.Errorf("shipper: peer offset: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeErr(resp)
	}
	var out struct {
		Offset int64 `json:"offset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("shipper: peer offset: %w", err)
	}
	return out.Offset, nil
}

// Append implements Sink.
func (h *HTTPSink) Append(name string, off int64, data []byte) error {
	u := h.endpoint("append", name, url.Values{"off": {strconv.FormatInt(off, 10)}})
	resp, err := h.client.Post(u, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("shipper: peer append: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Seal implements Sink.
func (h *HTTPSink) Seal(name string, size int64, sum string) error {
	u := h.endpoint("seal", name, url.Values{
		"size": {strconv.FormatInt(size, 10)},
		"sum":  {sum},
	})
	resp, err := h.client.Post(u, "application/json", nil)
	if err != nil {
		return fmt.Errorf("shipper: peer seal: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Receiver is the peer-node ship endpoint: an http.Handler a node mounts
// (bhpod -ship-recv-dir, under /ship/) to hold replicas for its peers.
// Each pushing node gets its own subdirectory (and so its own manifest)
// under the receiver root:
//
//	GET  {node}/offset?name=F          → {"offset": N}
//	POST {node}/append?name=F&off=N    body = the bytes
//	POST {node}/seal?name=F&size=N&sum=H
//
// Mount with http.StripPrefix so the node name is the first path element.
type Receiver struct {
	root string

	mu    sync.Mutex
	sinks map[string]*DirSink
}

// NewReceiver returns a receiver storing under root.
func NewReceiver(root string) (*Receiver, error) {
	if root == "" {
		return nil, errors.New("shipper: empty receiver directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("shipper: %w", err)
	}
	return &Receiver{root: root, sinks: map[string]*DirSink{}}, nil
}

// sink returns (creating if needed) the pushing node's DirSink.
func (rc *Receiver) sink(node string) (*DirSink, error) {
	if err := ValidNode(node); err != nil {
		return nil, fmt.Errorf("shipper: %w", err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if d, ok := rc.sinks[node]; ok {
		return d, nil
	}
	d, err := NewDirSink(filepath.Join(rc.root, node))
	if err != nil {
		return nil, err
	}
	rc.sinks[node] = d
	return d, nil
}

// Close closes the parts every node's sink keeps open; a request after it
// opens them again.
func (rc *Receiver) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var err error
	for _, d := range rc.sinks {
		err = errors.Join(err, d.Close())
	}
	return err
}

// ServeHTTP implements http.Handler.
func (rc *Receiver) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	node, op, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	if !ok {
		http.Error(w, "want {node}/{offset|append|seal}", http.StatusNotFound)
		return
	}
	sink, err := rc.sink(node)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name := r.URL.Query().Get("name")
	writeErr := func(err error) {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrOffsetMismatch):
			w.Header().Set(shipErrHeader, shipErrOffset)
			status = http.StatusConflict
		case errors.Is(err, ErrChecksumMismatch):
			w.Header().Set(shipErrHeader, shipErrChecksum)
			status = http.StatusConflict
		case strings.Contains(err.Error(), "invalid name"), strings.Contains(err.Error(), "reserved name"):
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
	}
	switch {
	case op == "offset" && r.Method == http.MethodGet:
		off, err := sink.Offset(name)
		if err != nil {
			writeErr(err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"offset\": %d}\n", off)
	case op == "append" && r.Method == http.MethodPost:
		off, err := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
		if err != nil || off < 0 {
			http.Error(w, "bad off", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := sink.Append(name, off, data); err != nil {
			writeErr(err)
			return
		}
		w.WriteHeader(http.StatusOK)
	case op == "seal" && r.Method == http.MethodPost:
		size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
		if err != nil || size < 0 {
			http.Error(w, "bad size", http.StatusBadRequest)
			return
		}
		if err := sink.Seal(name, size, r.URL.Query().Get("sum")); err != nil {
			writeErr(err)
			return
		}
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "want {node}/{offset|append|seal}", http.StatusNotFound)
	}
}
