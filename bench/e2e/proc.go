package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"perftrack/internal/client"
)

// serverFlags is how every replicate's ptserved is started. Everything
// not listed is the program's default: no per-commit fsync, 4096-row
// segment flush, 32 MiB plan cache, GOGC and GOMAXPROCS inherited.
var serverFlags = []string{"-storage", "segment", "-selfmon-interval", "-1s", "-log-level", "error"}

// instance is one running server the workloads are driven against.
type instance struct {
	baseURL string
	// pid is the process whose CPU time and peak RSS are charged to the
	// server. The child launcher sets it to the ptserved process.
	pid  int
	stop func() // kills the server without a clean shutdown and waits for it
}

// launcher starts a server on a store directory. The timed and traced
// runs use childLauncher; the hermetic tests substitute an in-process
// server so they need no child process.
type launcher interface {
	start(dir string) (*instance, error)
}

// childLauncher runs the ptserved binary it was built with and tracks
// every live child, so any exit path can kill them all.
type childLauncher struct {
	bin string

	mu   sync.Mutex
	live map[*exec.Cmd]bool

	// forkc feeds the one OS thread every child is started from. The
	// kernel delivers a child's parent-death signal when the thread that
	// forked it exits, not the process, and the Go runtime terminates a
	// thread whose goroutine ends while locked to it — so a child forked
	// from an arbitrary thread can be killed mid-run by an unrelated
	// goroutine finishing. The forking goroutine is locked to its thread
	// and lives as long as the process does.
	forkc chan func()
}

// buildServer compiles cmd/ptserved from the module at root into outDir.
func buildServer(root, outDir string) (*childLauncher, error) {
	bin := filepath.Join(outDir, "ptserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ptserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ptserved: %w\n%s", err, out)
	}
	cl := &childLauncher{bin: bin, live: map[*exec.Cmd]bool{}, forkc: make(chan func())}
	go func() {
		runtime.LockOSThread()
		for f := range cl.forkc {
			f()
		}
	}()
	return cl, nil
}

// killAll kills every child still running.
func (cl *childLauncher) killAll() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for cmd := range cl.live {
		killGroup(cmd)
		delete(cl.live, cmd)
	}
}

// killGroup SIGKILLs the child's whole process group and reaps it.
func killGroup(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	_ = cmd.Wait() // exit status of a killed child carries no information
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (cl *childLauncher) start(dir string) (*instance, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := dir + ".log"
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append([]string{"-db", dir, "-addr", addr}, serverFlags...)
	cmd := exec.Command(cl.bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group so one signal reaches anything the server might
	// spawn, and a death signal so the child cannot outlive a benchmark
	// that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	cl.forkc <- func() { started <- cmd.Start() }
	if err := <-started; err != nil {
		return nil, fmt.Errorf("starting ptserved: %w", err)
	}
	cl.mu.Lock()
	cl.live[cmd] = true
	cl.mu.Unlock()
	inst := &instance{
		baseURL: "http://" + addr,
		pid:     cmd.Process.Pid,
		stop: func() {
			cl.mu.Lock()
			known := cl.live[cmd]
			delete(cl.live, cmd)
			cl.mu.Unlock()
			if known { // not already reaped by killAll
				killGroup(cmd)
			}
		},
	}
	if err := waitHealthy(inst.baseURL, cmd.Process.Pid); err != nil {
		inst.stop()
		tail, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%w; server log:\n%s", err, tail)
	}
	return inst, nil
}

// waitHealthy polls /healthz until the server answers, the process
// dies, or 30 s pass.
func waitHealthy(baseURL string, pid int) error {
	c := client.New(baseURL)
	c.MaxRetries = -1
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if syscall.Kill(pid, 0) != nil {
			return errors.New("ptserved exited during start-up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ptserved did not become healthy within 30s")
}

// clockTicks is the kernel's USER_HZ, which /proc/<pid>/stat reports CPU
// times in. It is 100 on every Linux configuration Go supports; reading
// it properly needs sysconf, which needs cgo.
const clockTicks = 100

// cpuSeconds returns the utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// rssPeakMB returns VmHWM, the peak resident set size, in MB.
func rssPeakMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
