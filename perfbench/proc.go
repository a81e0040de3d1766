package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"existdlog/internal/obs"
)

// served is one running `existdlog serve` process.
type served struct {
	cmd    *exec.Cmd
	base   string
	drain  chan struct{} // closed once stderr is drained
	client *http.Client
}

// startServer spawns serve on dataDir with tracing off and returns once
// /readyz answers 200, with the time that took.
func startServer(bin, progPath, dataDir string) (*served, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-flight-recorder", "0", "-wal", dataDir, progPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting serve: %w", err)
	}
	s := &served{cmd: cmd, drain: make(chan struct{}), client: &http.Client{Timeout: 30 * time.Second}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drain)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "serving" {
				addr <- line.Addr
				// The request log that follows is drained unread.
				io.Copy(io.Discard, stderr)
				return
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, 0, errors.New("serve exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, 0, errors.New("serve did not start within 60s")
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, 0, errors.New("serve not ready within 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill sends SIGKILL and waits for the process and its log reader.
func (s *served) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	<-s.drain
	s.client.CloseIdleConnections()
}

func (s *served) pid() int { return s.cmd.Process.Pid }

func (s *served) get(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape is one reading of the server's counters from outside: the
// Prometheus families, CPU ticks from /proc and the runtime's GC record
// from the heap profile's MemStats block.
type scrape struct {
	families map[string]*obs.Family
	cpuTicks int64
	numGC    int64
	pauseNs  []int64 // the runtime's 256-entry ring of recent pauses
}

func (s *served) scrape() (*scrape, error) {
	sc := &scrape{}
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if sc.families, err = obs.ParseExposition(strings.NewReader(string(body))); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	if sc.cpuTicks, err = cpuTicks(s.pid()); err != nil {
		return nil, err
	}
	heap, err := s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(heap), "\n") {
		switch {
		case strings.HasPrefix(line, "# NumGC = "):
			sc.numGC, _ = strconv.ParseInt(strings.TrimPrefix(line, "# NumGC = "), 10, 64)
		case strings.HasPrefix(line, "# PauseNs = ["):
			for _, f := range strings.Fields(strings.Trim(strings.TrimPrefix(line, "# PauseNs = "), "[]")) {
				v, _ := strconv.ParseInt(f, 10, 64)
				sc.pauseNs = append(sc.pauseNs, v)
			}
		}
	}
	return sc, nil
}

// value sums a family's samples whose name and labels match.
func (sc *scrape) value(family, sample string, labels map[string]string) float64 {
	f, ok := sc.families[family]
	if !ok {
		return 0
	}
	sum := 0.0
next:
	for _, smp := range f.Samples {
		if smp.Name != sample {
			continue
		}
		for k, v := range labels {
			if smp.Labels[k] != v {
				continue next
			}
		}
		sum += smp.Value
	}
	return sum
}

// gcPause is the total GC pause between two scrapes, read from the
// runtime's ring of the last 256 pauses.
func gcPause(before, after *scrape) time.Duration {
	n := after.numGC - before.numGC
	if n > int64(len(after.pauseNs)) {
		n = int64(len(after.pauseNs))
	}
	var total int64
	for i := int64(0); i < n; i++ {
		total += after.pauseNs[(after.numGC-1-i)%int64(len(after.pauseNs))]
	}
	return time.Duration(total)
}

// cpuTicks reads utime+stime of a process in clock ticks.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// hostTicks reads the whole machine's CPU time from /proc/stat: busy
// ticks, and ticks stolen by the hypervisor.
func hostTicks() (busy, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line := strings.SplitN(string(raw), "\n", 2)[0]
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
		default:
			busy += n
		}
	}
	return busy, steal, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

// peakRSS reads VmHWM, the process's peak resident set, in MB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
