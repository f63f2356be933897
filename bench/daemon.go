package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sitstats/sits"
)

// daemon is one sitserve child process on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:<port>
	client   *http.Client
	log      bytes.Buffer
	startupS float64 // exec -> first 200 from /healthz
	done     chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon launches sitserve over the workload's table files and the SIT
// file the creation phase persisted, with one keep-alive connection per
// client, and waits until it answers /healthz. The port is picked free just
// before the launch; if another process grabs it in between, the launch is
// retried on a new one.
func (e *env) startDaemon(w workload, clients int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := e.launch(w, clients)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (e *env) launch(w workload, clients int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	dataFlag := "-csv"
	if w.segments {
		dataFlag = "-segments"
	}
	d := &daemon{
		base: "http://" + addr,
		done: make(chan struct{}),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        clients,
				MaxIdleConnsPerHost: clients,
			},
		},
	}
	d.cmd = exec.Command(e.daemonBin, "-addr", addr, dataFlag, e.dataDir(w), "-sits", e.sitsFile(w))
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// The daemon must not outlive the harness, whatever kills the harness.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.done)
	}()
	e.onExit(d.stop)
	for deadline := t0.Add(20 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startupS = now().Sub(t0).Seconds()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("bench: sitserve exited during start-up:\n%s", d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: sitserve not healthy after 20s:\n%s", d.log.String())
		}
	}
}

// stop ends the daemon (SIGTERM, then SIGKILL after 3 s) and waits until the
// process is gone. It is idempotent.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
}

// rssPeakMB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) rssPeakMB() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// tierByName maps the daemon's tier strings back to serving tiers.
var tierByName = map[string]uint8{
	sits.TierCold.String():   tierCold,
	sits.TierPlan.String():   tierPlan,
	sits.TierResult.String(): tierRes,
}

// do issues one GET /estimate. Anything but a 200 with a known tier — a 429
// shed included — is a failed request.
func (d *daemon) do(r request) (reply, error) {
	resp, err := d.client.Get(r.url(d.base))
	if err != nil {
		return reply{}, err
	}
	var body struct {
		Cardinality float64 `json:"cardinality"`
		Tier        string  `json:"tier"`
		EstimateUS  float64 `json:"estimate_us"`
		Error       string  `json:"error"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: %s %s", r, resp.Status, body.Error)
	}
	if decErr != nil {
		return reply{}, fmt.Errorf("%s: decoding response: %w", r, decErr)
	}
	tier, ok := tierByName[body.Tier]
	if !ok {
		return reply{}, fmt.Errorf("%s: unknown tier %q", r, body.Tier)
	}
	return reply{tier: tier, card: body.Cardinality, serverUS: body.EstimateUS}, nil
}

// warmBaseHistograms makes the daemon build every base histogram: one
// single-table request per column.
func (d *daemon) warmBaseHistograms(w workload) error {
	for i := 0; i < numTables; i++ {
		for _, c := range columns(i) {
			t, err := w.newTemplate(templateSpec{i, i, []string{tableName(i) + "." + c}})
			if err != nil {
				return err
			}
			r := request{tmpl: t, preds: []sits.Predicate{{Table: tableName(i), Attr: c, Lo: 1, Hi: 2}}}
			if _, err := d.do(r); err != nil {
				return err
			}
		}
	}
	return nil
}
