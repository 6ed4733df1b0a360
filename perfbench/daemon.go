package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running auricd process.
type daemon struct {
	cmd   *exec.Cmd
	spawn time.Time
	base  string // http://host:port once listening
	addr  chan string
	exit  chan error
	log   *os.File
}

// startDaemon spawns auricd with args (an ephemeral -addr is appended) and
// logs its stderr to logPath. The child dies with the benchmark.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: make(chan string, 1), exit: make(chan error, 1), log: logf}
	d.spawn = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		const marker = "auricd listening on http://"
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case d.addr <- line[i+len(marker):]:
				default:
				}
			}
			fmt.Fprintln(logf, line)
		}
		// A line too long for the scanner stops it; keep draining so the
		// daemon never blocks on a full pipe.
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-scanned
		d.exit <- cmd.Wait()
		close(d.exit)
	}()
	return d, nil
}

// waitReady blocks until the daemon answers body on POST /v1/recommend
// with a 200 and returns the time since spawn.
func (d *daemon) waitReady(body []byte, timeout time.Duration) (time.Duration, error) {
	deadline := time.After(timeout)
	select {
	case a := <-d.addr:
		d.base = "http://" + a
	case err := <-d.exit:
		return 0, fmt.Errorf("auricd exited during start-up: %v (see %s)", err, d.log.Name())
	case <-deadline:
		return 0, fmt.Errorf("auricd not listening after %v", timeout)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Post(d.base+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.spawn), nil
			}
		}
		select {
		case err := <-d.exit:
			return 0, fmt.Errorf("auricd exited during start-up: %v", err)
		case <-deadline:
			return 0, fmt.Errorf("auricd gave no 200 after %v", timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after a grace period)
// and waits for it to exit. It is safe to call more than once.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	// The process may have exited already; waiting on exit covers both.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
	}
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procSample is what /proc tells about the daemon process.
type procSample struct {
	hwmMB  float64 // VmHWM: peak resident set size
	cpuSec float64 // utime + stime
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

func sampleProc(pid int) (procSample, error) {
	var ps procSample
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return ps, err
			}
			ps.hwmMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ps.cpuSec = (ut + st) / clockTicks
	return ps, nil
}

// scrapeMetrics reads the unlabelled counters named in names from the
// daemon's /metrics exposition.
func scrapeMetrics(base string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
