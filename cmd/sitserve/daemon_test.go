package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/sitstats/sits"
)

// daemonEnv, when set, makes the test binary run as sitserve itself: the
// daemon tests re-execute it as a child process with sitserve's own command
// line, so they cover run()'s flag, -build and shutdown paths without a
// separate build.
const daemonEnv = "SITSERVE_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one sitserve child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	log    bytes.Buffer // read only once the process has exited
	err    error        // cmd.Wait's result, set before done closes
	done   chan struct{}
}

// startDaemon launches sitserve on a free loopback port, serving the
// synthetic chain database with its three chain SITs under a shared 256M
// budget, with one keep-alive connection per client, and waits until it
// answers /healthz. The child is killed at the end of the test if it is
// still running.
func startDaemon(t *testing.T, clients int) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
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
	d.cmd = exec.Command(os.Args[0], "-addr", addr, "-mem-budget", "256M",
		"-build", "T2.a | "+join12+"; T3.a | "+join23+"; T3.a | "+join123)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// The daemon must not outlive the test binary, even one killed on timeout.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails once the child has exited; nothing to do
		<-d.done
		d.client.CloseIdleConnections()
	})
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.done:
			t.Fatalf("sitserve exited during start-up (%v):\n%s", d.err, d.log.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.cmd.Process.Kill()
			<-d.done
			t.Fatalf("sitserve not healthy after 20s:\n%s", d.log.String())
		}
	}
}

// stop closes the client's connections, as an exiting client would, sends
// SIGTERM and requires a clean exit (status 0) within 10 s. Closing first
// matters: Shutdown waits 5 s for a connection dialed but never used.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		t.Fatal("sitserve still running 10s after SIGTERM")
	}
	if d.err != nil {
		t.Fatalf("sitserve exited with %v after SIGTERM:\n%s", d.err, d.log.String())
	}
}

// stats reads the daemon's /stats.
func (d *daemon) stats(t *testing.T) sits.ServeStats {
	t.Helper()
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sits.ServeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// template is one query shape; preds names the attributes that get a random
// range each.
type template struct {
	query string
	preds []predRange
}

type predRange struct {
	table, attr string
	domain      int64 // value domain the random ranges are drawn from
}

// chainDomain is the chain database's join domain; "a" payloads span it and
// "b" is uniform over five times it.
const chainDomain = 2000

// The chain database's join expressions (tables T1..T4 chained on
// jnext/jprev).
const (
	join12  = "T1 JOIN T2 ON T1.jnext = T2.jprev"
	join23  = "T2 JOIN T3 ON T2.jnext = T3.jprev"
	join123 = "T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev"
)

// chainTemplates are five query shapes over the three expressions.
var chainTemplates = []template{
	{query: join12, preds: []predRange{{"T2", "a", chainDomain}}},
	{query: join12, preds: []predRange{{"T2", "a", chainDomain}, {"T1", "b", 5 * chainDomain}}},
	{query: join23, preds: []predRange{{"T3", "a", chainDomain}}},
	{query: join123, preds: []predRange{{"T3", "a", chainDomain}}},
	{query: join123, preds: []predRange{{"T3", "a", chainDomain}, {"T2", "a", chainDomain}}},
}

// genRequest renders one random request URL from the seeded generator, with
// range bounds on multiples of quantum. Quantum 250 makes a bounded key
// population repeat (result-cache traffic); quantum 1 makes nearly every
// request a fresh constant over a known shape (plan-cache traffic).
func genRequest(rng *rand.Rand, base string, quantum int64) string {
	t := chainTemplates[rng.Intn(len(chainTemplates))]
	v := url.Values{"query": {t.query}}
	predStr := ""
	for i, p := range t.preds {
		steps := p.domain / quantum
		lo := quantum * rng.Int63n(steps)
		hi := lo + quantum*(1+rng.Int63n(steps-lo/quantum))
		if i > 0 {
			predStr += ","
		}
		predStr += fmt.Sprintf("%s.%s:%d:%d", p.table, p.attr, lo, hi)
	}
	v.Set("pred", predStr)
	return base + "/estimate?" + v.Encode()
}

// sample is one request's outcome: the serving tier and the server-reported
// estimate time, or the error.
type sample struct {
	tier string
	us   float64
	err  error
}

// drive sends n requests from c client goroutines. Worker w draws its
// requests from seed+w and owns samples w, w+c, ..., so the request set is
// the same at any interleaving.
func (d *daemon) drive(n, c int, seed, quantum int64) []sample {
	samples := make([]sample, n)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := w; i < n; i += c {
				samples[i] = d.one(genRequest(rng, d.base, quantum))
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// one issues a single estimate request; anything but a 200 is an error.
func (d *daemon) one(target string) sample {
	resp, err := d.client.Get(target)
	if err != nil {
		return sample{err: err}
	}
	var body struct {
		Tier       string  `json:"tier"`
		EstimateUS float64 `json:"estimate_us"`
		Error      string  `json:"error"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK:
		return sample{err: fmt.Errorf("%s: %s %s", target, resp.Status, body.Error)}
	case decErr != nil:
		return sample{err: fmt.Errorf("%s: decoding response: %w", target, decErr)}
	}
	return sample{tier: body.Tier, us: body.EstimateUS}
}

// failures counts the failed samples and returns the first error.
func failures(samples []sample) (int, error) {
	n, first := 0, error(nil)
	for _, s := range samples {
		if s.err != nil {
			if n == 0 {
				first = s.err
			}
			n++
		}
	}
	return n, first
}

// TestDaemonUnderBudget is the daemon's concurrency gate: 5 000 result-cache
// heavy requests from 1 000 client goroutines against a live sitserve all
// answer 200 under the shared 256M budget. Afterwards the governor's peak is
// within the budget, every grant is released and nothing was shed, and
// SIGTERM stops the daemon cleanly.
func TestDaemonUnderBudget(t *testing.T) {
	const n, c = 5000, 1000
	d := startDaemon(t, c)
	samples := d.drive(n, c, 1, 250)
	if bad, first := failures(samples); bad > 0 {
		t.Fatalf("%d of %d requests failed; first: %v", bad, n, first)
	}
	st := d.stats(t)
	if reg := st.Registry; reg.MemBudget != 256<<20 || reg.MemPeak > reg.MemBudget || reg.MemUsed != 0 {
		t.Fatalf("governor after load: budget %d, peak %d, used %d; want budget %d, peak <= budget, used 0",
			reg.MemBudget, reg.MemPeak, reg.MemUsed, 256<<20)
	}
	if st.Sheds != 0 {
		t.Fatalf("%d requests shed under a 256M budget", st.Sheds)
	}
	d.stop(t)
}
