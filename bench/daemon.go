package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"joinopt/internal/client"
	"joinopt/internal/serve"
)

// daemon is one ljqd (or yardstick) process started by the bench. Every
// layer inside ljqd is read from outside: /readyz, /statusz, the pprof
// heap profile's MemStats and /proc/<pid>.
type daemon struct {
	url     string
	cmd     *exec.Cmd
	started time.Time
	probe   *client.Client
	logDone chan struct{}

	mu        sync.Mutex
	recovered time.Duration // exec to the "recovered N plans" line; 0 if none
	tail      []string      // last stderr lines, for error reports
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDaemon execs ljqd on port with the given extra flags. The process
// gets SIGKILL if the bench dies first.
func startDaemon(bin string, port int, extra ...string) (*daemon, error) {
	return startProcess(port, append([]string{bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-pprof"}, extra...)...)
}

// startProcess execs argv, which serves HTTP on port, under the SCHED_IDLE
// policy. The bench shares the box's two CPUs with what it measures; when
// background upgrades fill both, the generator must still wake on time,
// or its own lateness would read as ljqd latency. Under SCHED_IDLE the
// daemons yield to the generator at once and still get every cycle it
// does not use; at niceness 10 the generator woke up to 1.3 ms late.
func startProcess(port int, argv ...string) (*daemon, error) {
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := exec.Command("chrt", append([]string{"--idle", "0"}, argv...)...) // chrt execs argv in place: same pid
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	probe, err := client.New(client.Config{BaseURL: url, MaxAttempts: 1, PerAttemptTimeout: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	d := &daemon{url: url, cmd: cmd, probe: probe, logDone: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ljqd: %w", err)
	}
	go d.readLog(stderr)
	return d, nil
}

func (d *daemon) readLog(r io.Reader) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if d.recovered == 0 && strings.HasPrefix(line, "ljqd: recovered ") {
			d.recovered = time.Since(d.started)
		}
		if len(d.tail) == 20 {
			d.tail = d.tail[1:]
		}
		d.tail = append(d.tail, line)
		d.mu.Unlock()
	}
}

// recoverTime is how long the daemon took from exec to logging recovery.
func (d *daemon) recoverTime() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// waitReady polls /readyz every millisecond until it answers 200.
func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		if err := d.probe.Ready(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v: %w\n%s", d.url, timeout, ctx.Err(), d.logTail())
		case <-d.logDone:
			return fmt.Errorf("%s exited before it was ready:\n%s", d.url, d.logTail())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop kills the process and waits for it and its log reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	_ = d.cmd.Wait()         // the exit status of a killed daemon says nothing
	<-d.logDone
}

func (d *daemon) status(ctx context.Context) (*serve.StatusResponse, error) {
	return d.probe.Status(ctx)
}

// mallocs reads the daemon's cumulative heap allocation count from the
// MemStats section of the pprof heap profile.
func (d *daemon) mallocs(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	return parseMallocs(resp.Body)
}

// parseMallocs finds the "# Mallocs = N" line of a debug=1 heap profile.
func parseMallocs(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no Mallocs line")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU reads utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// clockTick is USER_HZ, 100 on every Linux the bench targets.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces and
// parentheses, so fields are counted after its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("stat: too few fields")
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procRunTime sums the on-CPU time of every thread of a process from
// /proc/<pid>/task/*/schedstat, to the nanosecond: the tick-grained
// /proc/<pid>/stat cannot resolve the yardstick's few tens of
// milliseconds a phase.
func procRunTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	read := 0
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ns, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		total += ns
		read++
	}
	if read == 0 {
		return 0, fmt.Errorf("no readable schedstat under %s", dir)
	}
	return total, nil
}

// parseSchedstat reads the on-CPU nanoseconds, the first field of a
// schedstat line.
func parseSchedstat(line string) (time.Duration, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return 0, errors.New("empty schedstat")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// procField reads one "Key: value" field of a /proc/<pid>/<file>.
func procField(pid int, file, key string) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	return parseProcField(string(data), key)
}

// parseProcField parses a "Key:   value [kB]" line of /proc/<pid>/status
// or /proc/<pid>/io.
func parseProcField(text, key string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		v, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s field", key)
}
