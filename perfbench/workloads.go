package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/jobspec"
)

// buildDir holds everything a run builds or writes, relative to the
// checkout root; run.sh builds the binaries into buildDir/bin.
const buildDir = ".bench_build"

// The three workloads. Engines run at two workers: the machine the
// benchmark was written for has two cores. The worstcase-reduce
// configuration and the paper tables are measured by the traced run
// only (see README.md).
var workloadNames = []string{"explore-queue", "worstcase-cc", "reprod-durable"}

// cliWorkload is a workload whose op is one CLI invocation.
type cliWorkload struct {
	bin   string
	args  []string
	setup []string // the same binary and flags doing no search work
}

var cliWorkloads = map[string]cliWorkload{
	"explore-queue": {
		bin:   "explore",
		args:  []string{"-alg", "queue", "-waiters", "4", "-polls", "3", "-depth", "22", "-workers", "2"},
		setup: []string{"-alg", "queue", "-waiters", "4", "-polls", "3", "-depth", "1", "-workers", "2"},
	},
	"worstcase-cc": {
		bin:   "worstcase",
		args:  []string{"-alg", "queue", "-n", "4", "-polls", "3", "-depth", "22", "-model", "cc", "-workers", "2"},
		setup: []string{"-alg", "queue", "-n", "4", "-polls", "3", "-depth", "1", "-model", "cc", "-workers", "2"},
	},
}

// durableMix is the reprod-durable job mix; each run serves a seeded
// permutation of it, cycle after cycle.
var durableMix = []jobspec.Spec{
	{Kind: jobspec.KindWorstcase, Alg: "queue", Waiters: 3, Polls: 3, Depth: 16, Model: "cc", Workers: 2},
	{Kind: jobspec.KindExplore, Alg: "queue", Waiters: 3, Polls: 3, Depth: 20, Workers: 2},
	{Kind: jobspec.KindWorstcase, Alg: "fixed-waiters", Waiters: 5, Polls: 2, Depth: 14, Model: "dsm", Reduce: true, Workers: 2},
	{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 3, Polls: 3, Depth: 24, Model: "cc", Workers: 2},
	{Kind: jobspec.KindExplore, Alg: "flag", Waiters: 8, Polls: 1, Depth: 12, Reduce: true, Workers: 2},
}

// specCLI is the CLI invocation that computes the same document as a
// served job of spec.
func specCLI(s jobspec.Spec) (bin string, args []string) {
	itoa := strconv.Itoa
	if s.Kind == jobspec.KindExplore {
		bin = "explore"
		args = []string{"-alg", s.Alg, "-waiters", itoa(s.Waiters), "-polls", itoa(s.Polls), "-depth", itoa(s.Depth)}
	} else {
		bin = "worstcase"
		args = []string{"-alg", s.Alg, "-n", itoa(s.Waiters), "-polls", itoa(s.Polls), "-depth", itoa(s.Depth), "-model", s.Model}
	}
	args = append(args, "-workers", itoa(s.Workers))
	if s.Reduce {
		args = append(args, "-reduce")
	}
	return bin, append(args, "-json")
}

func specName(s jobspec.Spec) string {
	name := fmt.Sprintf("%s-%s-%dx%d-d%d", s.Kind, s.Alg, s.Waiters, s.Polls, s.Depth)
	if s.Model != "" {
		name += "-" + s.Model
	}
	if s.Reduce {
		name += "-reduce"
	}
	return name
}

// opSample is one measured round: an op and the set-up launches timed
// just before it.
type opSample struct {
	Job   string    `json:"job,omitempty"`
	Setup []float64 `json:"setup_s"`
	Wall  float64   `json:"wall_s"`
	CPU   float64   `json:"cpu_s,omitempty"`
	RSSMB float64   `json:"rss_mb,omitempty"`
	Nodes int64     `json:"nodes"`
	Err   string    `json:"err,omitempty"`
	// Steal is the share of the machine's CPU time the hypervisor
	// withheld during the round; Counted says whether the round counts
	// in the run's figures (see calmRounds).
	Steal   float64 `json:"host_steal_frac"`
	Counted bool    `json:"counted"`
}

// runOut is everything an untraced run measured.
type runOut struct {
	Ops []opSample `json:"ops"`
}

// bench is one benchmark invocation's context.
type bench struct {
	root    string // checkout root
	bin     string // directory of the built binaries
	scratch string // this run's private directory under buildDir
	seed    uint64
}

func (b *bench) path(bin string) string { return filepath.Join(b.bin, bin) }

// proc is one finished child process.
type proc struct {
	stdout, stderr []byte
	wall           time.Duration
	cpu            time.Duration // user + system
	maxRSSKB       int64
	err            error
}

// opTimeout bounds one child process or one served job; the slowest op
// takes a few seconds, so one still running after this is hung and fails.
const opTimeout = time.Minute

// runProc runs bin to completion, timing it from start to reaped exit.
func runProc(bin string, args ...string) proc {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := proc{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			p.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
			p.maxRSSKB = ru.Maxrss
		}
	}
	if err != nil {
		p.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err,
			strings.TrimSpace(string(errb.Bytes())))
	}
	return p
}

// setupPerOp is how many set-up launches precede each CLI op. Set-up is
// timed between the ops rather than all at once, so a few seconds in
// which the machine runs slow cannot move the run's median by much.
const setupPerOp = 3

// runCLIWorkload measures one CLI workload for the given time: ops one
// after another until the time is up, each after its set-up launches.
func (b *bench) runCLIWorkload(name string, seconds float64) (*runOut, error) {
	w := cliWorkloads[name]
	bin := b.path(w.bin)
	out := &runOut{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.Ops) == 0 || time.Now().Before(deadline) {
		steal := startSteal()
		var setup []float64
		for i := 0; i < setupPerOp; i++ {
			p := runProc(bin, w.setup...)
			if p.err != nil {
				return nil, fmt.Errorf("set-up: %w", p.err)
			}
			setup = append(setup, p.wall.Seconds())
		}
		p := runProc(bin, w.args...)
		s := opSample{Setup: setup, Wall: p.wall.Seconds(), CPU: p.cpu.Seconds(), RSSMB: float64(p.maxRSSKB) / 1024,
			Steal: steal.frac()}
		err := p.err
		if err == nil {
			if err = checkPinned(name, p.stdout); err == nil {
				s.Nodes, err = cliNodes(p.stdout)
			}
		}
		if err != nil {
			s.Err = err.Error()
		}
		out.Ops = append(out.Ops, s)
	}
	return out, nil
}

// server is one running reprod process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *lineBuffer
	client *http.Client
}

// lineBuffer collects a child's stderr and lets the parent wait for a
// line with a given prefix.
type lineBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lineBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lineBuffer) find(prefix string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(l.buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return rest, true
		}
	}
	return "", false
}

func (l *lineBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer spawns reprod on a free loopback port with a fresh data
// directory and returns once /healthz answers 200, with the time that
// took from spawn.
func (b *bench) startServer(dataDir string) (*server, time.Duration, error) {
	s := &server{
		stderr: &lineBuffer{},
		client: &http.Client{Timeout: opTimeout},
	}
	s.cmd = exec.Command(b.path("reprod"), "-addr", "127.0.0.1:0", "-data", dataDir)
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start reprod: %w", err)
	}
	deadline := start.Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("reprod not healthy after 30s: %s", s.stderr)
		}
		if s.base == "" {
			if addr, ok := s.stderr.find("reprod: listening on "); ok {
				s.base = "http://" + strings.TrimSpace(addr)
			}
		}
		if s.base != "" {
			if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server, which shuts down gracefully, and waits for
// it; a server that does not exit within ten seconds is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of an interrupted server carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.client.CloseIdleConnections()
}

// procCPU is the user+system CPU time the process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procHWM is the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM")
}

// jobTimes are the client-side timestamps of one served job.
type jobTimes struct {
	submitted time.Time // POST answered
	running   time.Time // first status seen past queued (zero if not observed)
	done      time.Time // terminal status seen
	fetched   time.Time // final document read
}

// serveJob submits spec and follows the job to its fetched result. With
// poll set it polls the job document every couple of milliseconds so the
// queued→running transition is timed; otherwise it follows the NDJSON
// stream, which the server closes at the terminal state.
func (s *server) serveJob(spec jobspec.Spec, poll bool) (jobView, jobTimes, error) {
	var t jobTimes
	body, err := json.Marshal(spec)
	if err != nil {
		return jobView{}, t, err
	}
	resp, err := s.client.Post(s.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobView{}, t, fmt.Errorf("submit: %w", err)
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jobView{}, t, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	t.submitted = time.Now()
	terminal := func(st string) bool { return st != "queued" && st != "running" }
	if poll {
		for !terminal(v.Status) {
			if time.Since(t.submitted) > opTimeout {
				return jobView{}, t, fmt.Errorf("job %s still %s after %v", v.ID, v.Status, opTimeout)
			}
			time.Sleep(2 * time.Millisecond)
			if v, err = s.getJob(v.ID); err != nil {
				return jobView{}, t, err
			}
			if v.Status != "queued" && t.running.IsZero() {
				t.running = time.Now()
			}
		}
	} else {
		resp, err := s.client.Get(s.base + "/api/v1/jobs/" + v.ID + "/stream")
		if err != nil {
			return jobView{}, t, fmt.Errorf("stream: %w", err)
		}
		dec := json.NewDecoder(resp.Body)
		for !terminal(v.Status) {
			if err := dec.Decode(&v); err != nil {
				resp.Body.Close()
				return jobView{}, t, fmt.Errorf("stream: %w", err)
			}
		}
		resp.Body.Close()
	}
	t.done = time.Now()
	v, err = s.getJob(v.ID)
	t.fetched = time.Now()
	return v, t, err
}

func (s *server) getJob(id string) (jobView, error) {
	resp, err := s.client.Get(s.base + "/api/v1/jobs/" + id)
	if err != nil {
		return jobView{}, fmt.Errorf("fetch %s: %w", id, err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return jobView{}, fmt.Errorf("fetch %s: %w", id, err)
	}
	return v, nil
}

// cliDocs computes the CLI's -json document for every spec of the mix:
// the reference each served document must equal.
func (b *bench) cliDocs() ([][]byte, error) {
	docs := make([][]byte, len(durableMix))
	for i, spec := range durableMix {
		bin, args := specCLI(spec)
		p := runProc(b.path(bin), args...)
		if p.err != nil {
			return nil, p.err
		}
		docs[i] = p.stdout
	}
	return docs, nil
}

// runDurable measures reprod-durable: whole seeded permutations of the
// job mix, one job in flight, until the time is up.
func (b *bench) runDurable(seconds float64) (*runOut, error) {
	docs, err := b.cliDocs()
	if err != nil {
		return nil, fmt.Errorf("reference documents: %w", err)
	}
	out := &runOut{}
	rng := rand.New(rand.NewPCG(b.seed, 1))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		// Whole cycles only, so every run weighs each job of the mix
		// equally and the median does not depend on where time ran out.
		ops, err := b.durableCycle(cycle, rng.Perm(len(durableMix)), docs)
		if err != nil {
			return nil, err
		}
		out.Ops = append(out.Ops, ops...)
	}
	return out, nil
}

// durableCycle serves the jobs of the mix in the order perm gives from a
// fresh server on a fresh data directory, so what the server holds does
// not grow with the length of the run. Before each job a second server
// is spawned on its own fresh directory and stopped again, to time
// set-up between the jobs. A job's CPU time is the server's
// /proc/<pid>/stat delta across it, and every job of the cycle carries
// the server's peak resident set (VmHWM) over the cycle.
func (b *bench) durableCycle(cycle int, perm []int, docs [][]byte) ([]opSample, error) {
	data := filepath.Join(b.scratch, fmt.Sprintf("data%d", cycle))
	defer os.RemoveAll(data)
	s, _, err := b.startServer(data)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	pid := s.cmd.Process.Pid
	var ops []opSample
	for _, i := range perm {
		steal := startSteal()
		setupData := filepath.Join(b.scratch, fmt.Sprintf("setup%d-%d", cycle, i))
		setup, d, err := b.startServer(setupData)
		if err != nil {
			return nil, err
		}
		setup.stop()
		os.RemoveAll(setupData)
		spec := durableMix[i]
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		v, _, err := s.serveJob(spec, false)
		op := opSample{Job: specName(spec), Setup: []float64{d.Seconds()}, Wall: time.Since(start).Seconds()}
		cpu1, cerr := procCPU(pid)
		if cerr != nil {
			return nil, cerr
		}
		op.CPU, op.Steal = (cpu1 - cpu0).Seconds(), steal.frac()
		if err == nil {
			err = checkServed(v, spec.Kind, docs[i])
		}
		if err == nil {
			op.Nodes, err = docNodes(v.Result)
		}
		if err != nil {
			op.Err = err.Error()
		}
		ops = append(ops, op)
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		ops[i].RSSMB = hwm
	}
	return ops, nil
}
