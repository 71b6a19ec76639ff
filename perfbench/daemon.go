package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"minoaner/internal/server"
)

// daemon is one running cmd/minoanerd process, driven only over loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
	log  *os.File
}

// startDaemon execs minoanerd on an ephemeral loopback port and waits for
// its listen line. The process is killed if perfbench dies first.
func startDaemon(bin, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet", "-drain", "5s")
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start minoanerd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), log: logf}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "minoanerd: listening on "); ok {
				addr <- a
			}
			fmt.Fprintln(logf, line)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case err := <-d.done:
		d.done <- err
		d.stop()
		return nil, fmt.Errorf("minoanerd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("minoanerd did not report a listen address within 30s")
	}
}

// loadPair registers a pair from two N-Triples files and polls until the
// pair is ready.
func (d *daemon) loadPair(id, e1, e2 string) error {
	spec, err := json.Marshal(server.LoadPairRequest{ID: id, E1: e1, E2: e2})
	if err != nil {
		return err
	}
	resp, err := http.Post(d.base+"/v1/pairs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return fmt.Errorf("load pair: %w", err)
	}
	drain(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("load pair: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/pairs/" + id)
		if err != nil {
			return fmt.Errorf("poll pair: %w", err)
		}
		var info server.PairInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		drain(resp.Body)
		if err != nil {
			return fmt.Errorf("poll pair: %w", err)
		}
		switch info.Status {
		case server.StatusReady:
			return nil
		case server.StatusFailed:
			return fmt.Errorf("pair build failed: %s", info.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("pair %s not ready within 120s", id)
}

// stop sends SIGTERM, waits up to ten seconds for the drain, then kills,
// and always waits for the process to end.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("minoanerd ignored SIGTERM: %v", <-d.done)
	}
}
