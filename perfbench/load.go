package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Random streams are derived from the workload seed plus a fixed stream
// number, so each consumer's sequence is independent of the others'.
const (
	streamPool     = 1
	streamSchedule = 2
	streamPick     = 3
	streamClient   = 100 // + client index
)

// inputPool is the fixed set of images the generator draws from, with the
// unpartitioned model's output for each.
type inputPool struct {
	name   string // the model's single graph input
	images []*tensor.Tensor
	want   []map[string]*tensor.Tensor
}

// makeImages draws n standard-normal images of the given per-item shape.
func makeImages(seed uint64, n int, shape []int) []*tensor.Tensor {
	rng := rand.New(rand.NewPCG(seed, streamPool))
	size := 1
	for _, d := range shape {
		size *= d
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		data := make([]float32, size)
		for j := range data {
			data[j] = float32(rng.NormFloat64())
		}
		t, err := tensor.FromSlice(data, shape...)
		if err != nil {
			panic(err) // size is derived from shape
		}
		out[i] = t
	}
	return out
}

// buildPool draws the images and runs each through core.BaselineExecutor:
// the original model with no partitioning, diversification or transport.
func buildPool(p Params, seed uint64) (*inputPool, error) {
	mc := models.Config{Scale: p.System.Scale, InputSize: p.System.InputSize}
	ex, err := core.BaselineExecutor(p.System.Model, mc, infer.Config{})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	g := ex.Graph()
	if len(g.Inputs) != 1 {
		return nil, fmt.Errorf("oracle: model has %d inputs, the generator drives one", len(g.Inputs))
	}
	vi := g.Inputs[0]
	pool := &inputPool{name: vi.Name, images: makeImages(seed, p.Harness.PoolSize, vi.Shape)}
	for _, img := range pool.images {
		out, err := ex.Run(map[string]*tensor.Tensor{vi.Name: img})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		pool.want = append(pool.want, out)
	}
	return pool, nil
}

// request returns fresh inputs for pool image i: the engine may keep a
// reference to its inputs, so concurrent requests never share a tensor.
func (pl *inputPool) request(i int) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{pl.name: pl.images[i].Clone()}
}

// verify compares a response with the oracle under the deployment's own
// checkpoint criterion.
func (pl *inputPool) verify(i int, got map[string]*tensor.Tensor, c check.Criterion) error {
	want := pl.want[i]
	if len(got) != len(want) {
		return fmt.Errorf("got %d outputs, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("missing output %q", name)
		}
		score, pass, err := check.Compare(g, w, c)
		if err != nil {
			return fmt.Errorf("output %q: %w", name, err)
		}
		if !pass {
			return fmt.Errorf("output %q: %v score %g outside rtol %g atol %g", name, c.Metric, score, c.RTol, c.ATol)
		}
	}
	return nil
}

// poissonSchedule returns the send offsets of an open loop at rate req/s
// over span: exponential gaps from the seed alone, so a seed names one
// arrival sequence.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, streamSchedule))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// pickSequence returns n pool indices for one request stream.
func pickSequence(seed, stream uint64, n, poolSize int) []int {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.IntN(poolSize)
	}
	return out
}

// sample is one request's outcome.
type sample struct {
	tag     uint64 // request identifier the traced run links spans by
	proto   string
	poolIdx int
	// due is the scheduled send time (open loop) or the send time (closed).
	due, start, end time.Time
	resp            serve.Response
	err             error
	wrong           error // output disagreed with the oracle
	missed          bool  // the request's deadline passed
}

func (s *sample) ok() bool { return s.err == nil && s.wrong == nil }

// window is the measured interval; requests due inside it are counted.
type window struct{ t0, t1 time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.t0) && t.Before(w.t1) }

// sub returns the i-th of k equal sub-windows; i == k is the empty window
// at the close.
func (w window) sub(i, k int) window {
	step := w.t1.Sub(w.t0) / time.Duration(k)
	t0 := w.t0.Add(time.Duration(i) * step)
	if i == k {
		return window{w.t1, w.t1}
	}
	return window{t0, t0.Add(step)}
}

// phase drives one workload over warm-up plus window and returns every
// counted sample. Hooks run at the window's edges.
type phase struct {
	p      Params
	wp     WorkloadParams
	seed   uint64
	pool   *inputPool
	crit   check.Criterion
	warmup time.Duration
	length time.Duration
	// onEdge(i) runs at the opening of sub-window i of cuts equal ones, and
	// onEdge(cuts) at the window's close.
	cuts   int
	onEdge func(i int)
	// onLost runs once, for the first request that misses its deadline.
	onLost func()
	lost   sync.Once
	// wrapCtx tags a request context with its sample index (traced runs).
	wrapCtx func(ctx context.Context, idx uint64) context.Context

	mu      sync.Mutex
	samples []*sample
	wrong   atomic.Int64 // wrong outputs anywhere, warm-up included
	// open-loop bookkeeping
	inflight  atomic.Int64
	backlog   []int64 // in-flight count sampled every backlogTick in the window
	lateMS    []float64
	backlogAt int64
}

const backlogTick = 100 * time.Millisecond

func (ph *phase) deadline() time.Duration { return seconds(ph.p.Harness.DeadlineS) }

// record classifies and keeps one finished request.
func (ph *phase) record(s *sample, w window) {
	if s.err == nil {
		if err := ph.pool.verify(s.poolIdx, s.resp.Tensors, ph.crit); err != nil {
			s.wrong = err
			ph.wrong.Add(1)
		}
		// Checked outputs are dropped, so the samples a run keeps do not
		// grow peak_rss_mb with the window's length.
		s.resp.Tensors = nil
	}
	if s.missed && ph.onLost != nil {
		ph.lost.Do(ph.onLost)
	}
	if !w.contains(s.due) {
		return
	}
	ph.mu.Lock()
	ph.samples = append(ph.samples, s)
	ph.mu.Unlock()
}

func isDeadline(ctx context.Context, err error) bool {
	return err != nil && (errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil)
}

// runClosed runs one goroutine per client, each with one request in flight
// over real HTTP, until the window closes.
func (ph *phase) runClosed(clients []*serve.Client, tenants []string) window {
	start := time.Now()
	w := window{t0: start.Add(ph.warmup)}
	w.t1 = w.t0.Add(ph.length)
	edges := ph.edges(w)
	var wg sync.WaitGroup
	var reqSeq atomic.Uint64
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			picks := pickSequence(ph.seed, streamClient+uint64(c), 1<<16, len(ph.pool.images))
			for i := 0; time.Now().Before(w.t1); i++ {
				idx := picks[i%len(picks)]
				s := &sample{tag: reqSeq.Add(1), proto: protoName(cl.Binary), poolIdx: idx}
				ctx, cancel := context.WithTimeout(context.Background(), ph.deadline())
				if ph.wrapCtx != nil {
					ctx = ph.wrapCtx(ctx, s.tag)
				}
				s.start = time.Now()
				s.due = s.start
				s.resp, s.err = cl.Infer(ctx, serve.Request{Tenant: tenants[c], Inputs: ph.pool.request(idx)})
				s.end = time.Now()
				s.missed = isDeadline(ctx, s.err)
				cancel()
				ph.record(s, w)
			}
		}(c, cl)
	}
	wg.Wait()
	<-edges
	return w
}

// runOpen sends requests in-process on a seeded Poisson schedule,
// regardless of completions, and measures each from its due time.
func (ph *phase) runOpen(srv *serve.Server, tenants []string) window {
	span := ph.warmup + ph.length
	sched := poissonSchedule(ph.seed, ph.wp.RateRPS, span)
	picks := pickSequence(ph.seed, streamPick, len(sched), len(ph.pool.images))
	start := time.Now()
	w := window{t0: start.Add(ph.warmup), t1: start.Add(span)}
	edges := ph.edges(w)

	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		time.Sleep(time.Until(w.t0))
		tick := time.NewTicker(backlogTick)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case now := <-tick.C:
				if now.Before(w.t1) {
					ph.backlog = append(ph.backlog, ph.inflight.Load())
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		if w.contains(due) {
			ph.lateMS = append(ph.lateMS, ms(sent.Sub(due)))
		}
		ph.inflight.Add(1)
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			defer ph.inflight.Add(-1)
			s := &sample{tag: uint64(i + 1), proto: "inproc", poolIdx: picks[i], due: due, start: sent}
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(ph.deadline()))
			defer cancel()
			if ph.wrapCtx != nil {
				ctx = ph.wrapCtx(ctx, s.tag)
			}
			s.resp, s.err = srv.Infer(ctx, serve.Request{Tenant: tenants[i%len(tenants)], Inputs: ph.pool.request(picks[i])})
			s.end = time.Now()
			s.missed = isDeadline(ctx, s.err)
			ph.record(s, w)
		}(i, due, sent)
	}
	time.Sleep(time.Until(w.t1))
	ph.backlogAt = ph.inflight.Load()
	close(stopSampling)
	<-samplerDone
	wg.Wait()
	<-edges
	return w
}

// edges runs the window hooks on their own goroutine; the returned channel
// closes after the last one ran.
func (ph *phase) edges(w window) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= ph.cuts; i++ {
			time.Sleep(time.Until(w.sub(i, ph.cuts).t0))
			if ph.onEdge != nil {
				ph.onEdge(i)
			}
		}
	}()
	return done
}

// overCapacity reports whether the open loop's backlog grew across the
// window: the last quarter's mean in-flight count exceeds twice the first
// quarter's plus one full batch per tenant.
func overCapacity(backlog []int64, slack float64) (bool, float64, float64) {
	if len(backlog) < 8 {
		return false, 0, 0
	}
	q := len(backlog) / 4
	first, last := 0.0, 0.0
	for _, v := range backlog[:q] {
		first += float64(v)
	}
	for _, v := range backlog[len(backlog)-q:] {
		last += float64(v)
	}
	first /= float64(q)
	last /= float64(q)
	return last > 2*first+slack, first, last
}

func protoName(binary bool) string {
	if binary {
		return "binary"
	}
	return "json"
}

// newHTTPClients returns one client per protocol, each on its own
// single-connection transport, so the load holds at most len(protos)
// connections.
func newHTTPClients(baseURL string, protos []string, wrap func(http.RoundTripper) http.RoundTripper) []*serve.Client {
	out := make([]*serve.Client, len(protos))
	for i, proto := range protos {
		var rt http.RoundTripper = &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		if wrap != nil {
			rt = wrap(rt)
		}
		out[i] = &serve.Client{BaseURL: baseURL, HTTP: &http.Client{Transport: rt}, Binary: proto == "binary"}
	}
	return out
}

func closeHTTPClients(cls []*serve.Client) {
	for _, cl := range cls {
		cl.HTTP.CloseIdleConnections()
	}
}

// lateness is the p99 of how late the open loop's generator sent, or nil
// when the run was too short to support it.
func lateness(lateMS []float64) any {
	v, err := percentile(lateMS, 0.99)
	if err != nil {
		return nil
	}
	return v
}
