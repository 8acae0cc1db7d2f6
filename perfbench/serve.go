package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"vega/internal/core"
	"vega/internal/generate"
	"vega/internal/obs"
	"vega/internal/serve"
)

// serveClients is the closed loop's client count: each client sends its
// next request only when the previous reply has arrived, like the build
// jobs and tools that call vega-serve and wait.
const serveClients = 2

// newServer builds an in-process vega-serve with cmd/vega-serve's
// defaults around p.
func newServer(p *core.Pipeline, o *obs.Obs) *serve.Server {
	return serve.New(serve.Config{
		Workers:         2,
		QueueCap:        64,
		DefaultDeadline: 60 * time.Second,
		MaxDeadline:     5 * time.Minute,
		DrainTimeout:    30 * time.Second,
		Policy:          serve.DefaultDegradePolicy(),
		HealthTarget:    "RISCV",
		Obs:             o,
	}, serve.NewSnapshot("bench", "setup", p))
}

// wireFunction is the serve layer's wire form of one generated function
// (serve.backendResponse), rebuilt here from the reference generation.
func wireFunction(f *generate.Function) serve.FunctionJSON {
	fj := serve.FunctionJSON{
		Name:       f.Name,
		Module:     f.Module,
		Confidence: f.Confidence(),
		Failed:     f.Failed(),
		Error:      f.Err,
		Statements: make([]serve.StatementJSON, 0, len(f.Statements)),
	}
	for _, st := range f.Statements {
		fj.Statements = append(fj.Statements, serve.StatementJSON{
			Row: st.Row, Text: st.Text, Absent: st.Absent, Score: st.Score, Formula: st.Formula,
		})
	}
	return fj
}

// serveCase is one (target, function) request with the bytes its single
// function must encode to.
type serveCase struct {
	target, function string
	want             []byte
}

// serveCases lists every (target, function) pair of a plain reference,
// in target then template order.
func serveCases(ref *reference) ([]serveCase, error) {
	var cases []serveCase
	for _, t := range ref.targets {
		for _, fn := range ref.backends[t].Functions {
			want, err := json.Marshal(wireFunction(fn))
			if err != nil {
				return nil, fmt.Errorf("reference %s/%s: %w", t, fn.Name, err)
			}
			cases = append(cases, serveCase{target: t, function: fn.Name, want: want})
		}
	}
	return cases, nil
}

// checkResponse accepts only a full-fidelity 200 whose single function
// equals the reference byte for byte.
func checkResponse(status int, body []byte, c serveCase) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s/%s: status %d", c.target, c.function, status)
	}
	var resp struct {
		Degraded  bool              `json:"degraded"`
		Reasons   []string          `json:"degrade_reasons"`
		Functions []json.RawMessage `json:"functions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s/%s: bad body: %v", c.target, c.function, err)
	}
	switch {
	case resp.Degraded:
		return fmt.Errorf("%s/%s: degraded: %v", c.target, c.function, resp.Reasons)
	case len(resp.Functions) != 1:
		return fmt.Errorf("%s/%s: %d functions in reply, want 1", c.target, c.function, len(resp.Functions))
	case !bytes.Equal(resp.Functions[0], c.want):
		return fmt.Errorf("%s/%s: reply differs from the float32 whole-backend generation", c.target, c.function)
	}
	return nil
}

// servePhase serves p over loopback HTTP and drives it closed-loop for
// seconds, each client walking cases in its own seeded order. Every
// reply is checked; latency runs from send to full body.
func servePhase(ctx context.Context, p *core.Pipeline, o *obs.Obs, cases []serveCase, seed int64, seconds float64) (phase, error) {
	srv := newServer(p, o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return phase{}, fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	url := "http://" + ln.Addr().String() + "/v1/generate"
	ph := drive(obs.With(ctx, o), url, cases, seed, seconds)

	stop, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(stop)
	<-served
	if serr := srv.Shutdown(stop); err == nil {
		err = serr
	}
	if err != nil {
		return ph, fmt.Errorf("serve shutdown: %w", err)
	}
	return ph, nil
}

// drive runs the closed loop against url. Each client first sends one
// unmeasured warm-up request (the server builds its int8 weight view
// lazily), so the timed requests see a warm server. Warm-up replies are
// checked and counted like the rest.
func drive(ctx context.Context, url string, cases []serveCase, seed int64, seconds float64) phase {
	var (
		mu   sync.Mutex
		ph   phase
		wg   sync.WaitGroup
		done []float64 // completion times of correct replies, from t0
	)
	ready := make(chan struct{})
	start := make(chan time.Time)
	for i := 0; i < serveClients; i++ {
		next := walk(cases, seed*serveClients+int64(i))
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			var warm, timed phase
			request(ctx, client, url, next(), &warm)
			ready <- struct{}{}
			t0 := <-start
			for time.Since(t0).Seconds() < seconds || timed.attempted == 0 {
				failed := timed.failed
				request(ctx, client, url, next(), &timed)
				if timed.failed == failed {
					mu.Lock()
					done = append(done, time.Since(t0).Seconds())
					mu.Unlock()
				}
			}
			warm.lat, warm.fns = nil, 0
			mu.Lock()
			ph.add(warm)
			ph.add(timed)
			mu.Unlock()
		}()
	}
	for i := 0; i < serveClients; i++ {
		<-ready
	}
	t0 := time.Now()
	for i := 0; i < serveClients; i++ {
		start <- t0
	}
	wg.Wait()
	// One rate per full window of len(cases) correct replies, a pass's
	// worth; a phase too short for one window is one window.
	win := min(len(cases), len(done))
	for lo, prev := 0, 0.0; win > 0 && lo+win <= len(done); lo += win {
		ph.rates = append(ph.rates, float64(win)/(done[lo+win-1]-prev))
		prev = done[lo+win-1]
	}
	return ph
}

// walk returns a seeded stream over cases: a uniform random order,
// drawn without replacement and reshuffled after every pass, so any
// stretch of the stream holds each case about equally often and the mix
// of cheap and expensive functions does not vary from run to run.
func walk(cases []serveCase, seed int64) func() serveCase {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	return func() serveCase {
		if len(order) == 0 {
			order = rng.Perm(len(cases))
		}
		c := cases[order[0]]
		order = order[1:]
		return c
	}
}

// request sends one generate request, checks the reply and records the
// outcome in ph; only correct replies contribute a latency.
func request(ctx context.Context, client *http.Client, url string, c serveCase, ph *phase) {
	body := fmt.Sprintf(`{"target":%q,"function":%q,"quantize":true}`, c.target, c.function)
	ctx, span := obs.Start(ctx, "bench/POST /v1/generate", obs.String("target", c.target), obs.String("func", c.function))
	t0 := time.Now()
	status, reply, err := post(ctx, client, url, body)
	d := time.Since(t0).Seconds()
	span.End()
	ph.attempted++
	if err == nil {
		err = checkResponse(status, reply, c)
	}
	if err != nil {
		ph.fail(err.Error())
		return
	}
	ph.fns++
	ph.lat = append(ph.lat, d)
}

func post(ctx context.Context, client *http.Client, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewBufferString(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}
