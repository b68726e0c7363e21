package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running SUT process. Its output goes to a log file in the
// run directory, shown on failure.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

// startProc launches bin with args. The child is killed if the harness
// dies first.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: args, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM), kills it after a grace
// period, and returns once it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the process log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// pid returns the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls url until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, url string, p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy at %s after 30s:\n%s", p.name, url, p.logTail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// userHZ is the kernel's clock-tick rate for /proc CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const userHZ = 100

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	// After the command name: state is field 0; utime and stime are 11 and 12.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return (ut + st) / userHZ, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// sutCPU sums CPU seconds over the processes.
func sutCPU(ps []*proc) (float64, error) {
	var sum float64
	for _, p := range ps {
		v, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// sutPeakRSS sums peak RSS over the processes.
func sutPeakRSS(ps []*proc) (float64, error) {
	var sum float64
	for _, p := range ps {
		v, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// newClient returns the load generator's HTTP client: at most maxConns
// keep-alive connections to the SUT at any time.
func newClient(maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// response is one finished HTTP exchange.
type response struct {
	code int
	hdr  http.Header
	body []byte
}

// do sends one request and reads the whole body.
func do(ctx context.Context, hc *http.Client, method, url string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{code: resp.StatusCode, hdr: resp.Header, body: b}, nil
}

// getJSON fetches url and decodes a 200 answer into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	r, err := do(ctx, hc, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if r.code != 200 {
		return fmt.Errorf("GET %s: http %d: %s", url, r.code, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// scrape reads a Prometheus text page into sample name → value, where
// the name keeps its label set, e.g.
// fcdpm_http_request_seconds_sum{endpoint="POST /v1/runs"}.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	r, err := do(ctx, hc, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if r.code != 200 {
		return nil, fmt.Errorf("GET %s: http %d", url, r.code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta returns after[name] − before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// streamLines reads an NDJSON event stream line by line until f returns
// false or the stream ends.
func streamLines(ctx context.Context, hc *http.Client, url string, f func(line []byte, at time.Time) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: http %d: %s", url, resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if !f(sc.Bytes(), time.Now()) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Drain what is left so the connection returns to the pool.
	io.Copy(io.Discard, resp.Body)
	return nil
}
