package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a benchmark run leaves behind: the built server
// binaries, the run's scratch directory and every child process. close
// kills the children, waits for them and removes the scratch directory;
// it also runs on SIGINT/SIGTERM, so an interrupted run leaks nothing.
type harness struct {
	root   string // repository root (parent of the bench module)
	outDir string // bench/out: binaries, traces, profiles
	tmpDir string // bench/out/run-<pid>: data dirs of this run
	bhpod  string
	ctl    string

	mu    sync.Mutex
	procs map[*proc]struct{}
	seq   int
	http  *http.Client
}

// findBenchDir walks up from the working directory to the bench module
// (go run -C bench and go test both start inside it).
func findBenchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module enhancedbhpo/bench") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench module not found above the working directory")
		}
		dir = parent
	}
}

// newHarness builds bhpod and bhpoctl from the checkout's source (a no-op
// when they are current) and prepares the scratch directory.
func newHarness() (*harness, error) {
	benchDir, err := findBenchDir()
	if err != nil {
		return nil, err
	}
	h := &harness{
		root:   filepath.Dir(benchDir),
		outDir: filepath.Join(benchDir, "out"),
		procs:  map[*proc]struct{}{},
		// Enough idle connections per host that no load pattern here
		// redials: at most eight event streams plus a submit at a time.
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	binDir := filepath.Join(h.outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/bhpod", "./cmd/bhpoctl")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building servers: %v\n%s", err, out)
	}
	h.bhpod = filepath.Join(binDir, "bhpod")
	h.ctl = filepath.Join(binDir, "bhpoctl")
	h.tmpDir = filepath.Join(h.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(h.tmpDir, 0o755); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

// close kills and reaps every child and removes the scratch directory.
func (h *harness) close() {
	h.mu.Lock()
	procs := make([]*proc, 0, len(h.procs))
	for p := range h.procs {
		procs = append(procs, p)
	}
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(h.tmpDir)
}

// dir returns a fresh, empty directory under the run's scratch space.
func (h *harness) dir(label string) string {
	h.mu.Lock()
	h.seq++
	d := filepath.Join(h.tmpDir, fmt.Sprintf("%s-%d", label, h.seq))
	h.mu.Unlock()
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(err) // the scratch directory was just created by this process
	}
	return d
}

// proc is one server child process.
type proc struct {
	h    *harness
	cmd  *exec.Cmd
	url  string
	log  *os.File
	once sync.Once
}

// freeAddr asks the kernel for an unused loopback port (":0"), then hands
// it to the child; the servers log but do not report a port they pick.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with -addr on a free port plus args. The child dies
// with this process (Pdeathsig) even if close never runs.
func (h *harness) spawn(bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.seq++
	logPath := filepath.Join(h.tmpDir, fmt.Sprintf("%s-%d.log", filepath.Base(bin), h.seq))
	h.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{h: h, cmd: cmd, url: "http://" + addr, log: logf}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	h.mu.Lock()
	h.procs[p] = struct{}{}
	h.mu.Unlock()
	return p, nil
}

// kill stops the child with SIGKILL and waits for it. The benchmark never
// needs a graceful drain: every job it cares about is already terminal
// and journaled, and crash-recover wants exactly this signal.
func (p *proc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is fine
		_ = p.cmd.Wait()         // the exit status of a killed child carries nothing
		p.log.Close()
		p.h.mu.Lock()
		delete(p.h.procs, p)
		p.h.mu.Unlock()
	})
}

// logTail returns the end of the child's log, for error reports.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTick = 100

// cpuSeconds reads utime+stime of the child from /proc/<pid>/stat.
func (p *proc) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// peakRSSMB reads VmHWM of the child.
func (p *proc) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// waitHealthy polls /healthz until its status is "ok". The poll is tight
// because boot is what setup_s and crash-recover measure, and it lasts
// tens of milliseconds.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := p.h.http.Get(p.url + "/healthz")
		if err == nil {
			var body struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if derr == nil && body.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v\n%s", filepath.Base(p.cmd.Path), err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hostCPU reads the aggregate cpu line of /proc/stat: total and stolen
// jiffies, for proc.steal_share.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
