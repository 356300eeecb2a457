package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The traced run wraps the calls into each layer's public functions from
// here and keeps the resulting spans in memory until the run ends. Nothing
// in this file is installed in a timed run.

// tracer collects batch, handler and link records for one traced phase.
type tracer struct {
	epoch time.Time // span times are nanoseconds since epoch

	mu       sync.Mutex
	batches  map[uint64]*batchRec
	handlers map[uint64]handlerRec
	inflight []float64 // batches in flight, sampled at each Submit

	linkBytes atomic.Int64
}

type batchRec struct {
	s0, s1, out time.Time // Submit entered, Submit returned, result left the engine
}

type handlerRec struct {
	h0, w0, h1 time.Time // handler entered, first response byte written, handler returned
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), batches: map[uint64]*batchRec{}, handlers: map[uint64]handlerRec{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) batch(id uint64) *batchRec {
	b := t.batches[id]
	if b == nil {
		b = &batchRec{}
		t.batches[id] = b
	}
	return b
}

// tracedEngine is the serve.Engine handed to serve.New in a traced run: it
// times each Submit and stamps each result as it leaves the engine.
type tracedEngine struct {
	inner    serve.Engine
	t        *tracer
	out      chan monitor.BatchResult
	stop     chan struct{}
	done     chan struct{}
	inflight atomic.Int64
}

func (t *tracer) wrapEngine(inner serve.Engine) serve.Engine {
	e := &tracedEngine{inner: inner, t: t, out: make(chan monitor.BatchResult), stop: make(chan struct{}), done: make(chan struct{})}
	go e.pump()
	return e
}

func (e *tracedEngine) Submit(inputs map[string]*tensor.Tensor) (uint64, error) {
	s0 := time.Now()
	id, err := e.inner.Submit(inputs)
	s1 := time.Now()
	if err != nil {
		return id, err
	}
	n := e.inflight.Add(1)
	e.t.mu.Lock()
	b := e.t.batch(id)
	b.s0, b.s1 = s0, s1
	e.t.inflight = append(e.t.inflight, float64(n))
	e.t.mu.Unlock()
	return id, nil
}

func (e *tracedEngine) Outputs() <-chan monitor.BatchResult { return e.out }

func (e *tracedEngine) Ladder() []monitor.LadderRung { return e.inner.Ladder() }

func (e *tracedEngine) pump() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case r, ok := <-e.inner.Outputs():
			if !ok {
				close(e.out)
				return
			}
			now := time.Now()
			e.inflight.Add(-1)
			e.t.mu.Lock()
			e.t.batch(r.ID).out = now
			e.t.mu.Unlock()
			select {
			case e.out <- r:
			case <-e.stop:
				return
			}
		}
	}
}

func (e *tracedEngine) close() {
	close(e.stop)
	<-e.done
}

// The client tags each request with its sample number in a header the
// handler wrapper reads back, linking the two sides of one round trip.
const tagHeader = "X-Perfbench-Tag"

type tagKey struct{}

func withTag(ctx context.Context, tag uint64) context.Context {
	return context.WithValue(ctx, tagKey{}, tag)
}

type taggingTransport struct{ base http.RoundTripper }

func (tt taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tag, ok := r.Context().Value(tagKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(tagHeader, strconv.FormatUint(tag, 10))
	}
	return tt.base.RoundTrip(r)
}

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h0 := time.Now()
		fw := &firstWrite{ResponseWriter: w}
		h.ServeHTTP(fw, r)
		h1 := time.Now()
		if fw.at.IsZero() {
			fw.at = h1
		}
		tag, err := strconv.ParseUint(r.Header.Get(tagHeader), 10, 64)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.handlers[tag] = handlerRec{h0: h0, w0: fw.at, h1: h1}
		t.mu.Unlock()
	})
}

// firstWrite notes when the handler starts answering: for JSON that is
// after the response is marshalled, for binary after the meta frame.
type firstWrite struct {
	http.ResponseWriter
	at time.Time
}

func (f *firstWrite) mark() {
	if f.at.IsZero() {
		f.at = time.Now()
	}
}

func (f *firstWrite) WriteHeader(code int) { f.mark(); f.ResponseWriter.WriteHeader(code) }

func (f *firstWrite) Write(b []byte) (int, error) { f.mark(); return f.ResponseWriter.Write(b) }

func (f *firstWrite) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// countConn counts every byte crossing one router-replica link.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func (t *tracer) wrapLink(c net.Conn) net.Conn { return countConn{Conn: c, n: &t.linkBytes} }

// span is one recorded interval. Spans of one request share Req; Parent is
// the index of the enclosing span in the same request's list, -1 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Batch  uint64 `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Blocking-path layers of the budget, in path order.
const (
	layerCodec = "codec"
	layerQueue = "queue"
	layerBatch = "monitor"
	layerDemux = "demux"
)

var budgetLayers = []string{layerCodec, layerQueue, layerBatch, layerDemux}

// spanLayer maps span names onto the budget layers.
var spanLayer = map[string]string{
	"client":         layerCodec, // self time: client codec and transport
	"http.handler":   layerCodec, // self time: nothing unless the spans below leave a gap
	"http.encode":    layerCodec,
	"serve.queue":    layerQueue,
	"monitor.batch":  layerBatch,
	"monitor.submit": layerBatch,
	"serve.demux":    layerDemux,
}

// requestSpans builds one request's span tree. HTTP requests:
//
//	client [send, reply]
//	└ http.handler [h0, h1]
//	  ├ serve.queue   [h0, s0]   decode, admission, batching window
//	  ├ monitor.batch [s0, out]  ── monitor.submit [s0, s1]
//	  ├ serve.demux   [out, w0]  demux, split, response marshal (JSON)
//	  └ http.encode   [w0, h1]
//
// In-process requests have no handler: queue, batch and demux hang off the
// client span and demux ends when Infer returns.
func (t *tracer) requestSpans(s *sample, b *batchRec, h *handlerRec) []span {
	var out []span
	add := func(parent int, name string, from, to time.Time) int {
		out = append(out, span{ID: len(out), Parent: parent, Name: name, Req: s.tag, Batch: s.resp.BatchID, Start: t.ns(from), End: t.ns(to)})
		return len(out) - 1
	}
	root := add(-1, "client", s.start, s.end)
	parent, queueFrom, demuxTo := root, s.start, s.end
	if h != nil {
		parent = add(root, "http.handler", h.h0, h.h1)
		queueFrom, demuxTo = h.h0, h.w0
	}
	add(parent, "serve.queue", queueFrom, b.s0)
	mb := add(parent, "monitor.batch", b.s0, b.out)
	add(mb, "monitor.submit", b.s0, b.s1)
	add(parent, "serve.demux", b.out, demuxTo)
	if h != nil {
		add(parent, "http.encode", h.w0, h.h1)
	}
	return out
}

// layerSelf sums each budget layer's self time (ms) over one request's spans.
func layerSelf(spans []span) map[string]float64 {
	children := make([][]interval, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	out := map[string]float64{}
	for i, sp := range spans {
		self := selfTime(interval{sp.Start, sp.End}, children[i])
		out[spanLayer[sp.Name]] += float64(self) / 1e6
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes are the traced phase's per-request figures.
type layerTimes struct {
	roundTrip, queue, batch, submit, demux []float64
	codec                                  map[string][]float64 // RT minus server Latency, per protocol
	self                                   map[string][]float64 // budget layer self times
	fills                                  map[uint64]int       // distinct batch -> fill
	spans                                  []span
	unlinked                               int // ok requests whose batch or handler record was missing
}

// collect joins the counted samples with the batch and handler records.
func (t *tracer) collect(samples []*sample) layerTimes {
	lt := layerTimes{codec: map[string][]float64{}, self: map[string][]float64{}, fills: map[uint64]int{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		b := t.batches[s.resp.BatchID]
		var h *handlerRec
		if s.proto != "inproc" {
			hr, ok := t.handlers[s.tag]
			if !ok {
				lt.unlinked++
				continue
			}
			h = &hr
		}
		if b == nil || b.s0.IsZero() || b.out.IsZero() {
			lt.unlinked++
			continue
		}
		spans := t.requestSpans(s, b, h)
		self := layerSelf(spans)
		for i := range spans {
			spans[i].ID += len(lt.spans)
			if spans[i].Parent >= 0 {
				spans[i].Parent += len(lt.spans)
			}
		}
		for _, l := range budgetLayers {
			lt.self[l] = append(lt.self[l], self[l])
		}
		lt.spans = append(lt.spans, spans...)
		rt := ms(s.end.Sub(s.start))
		lt.roundTrip = append(lt.roundTrip, rt)
		queueFrom := s.start
		if h != nil {
			queueFrom = h.h0
			lt.codec[s.proto] = append(lt.codec[s.proto], rt-ms(s.resp.Latency))
		}
		lt.queue = append(lt.queue, ms(b.s0.Sub(queueFrom)))
		lt.batch = append(lt.batch, ms(b.out.Sub(b.s0)))
		lt.submit = append(lt.submit, ms(b.s1.Sub(b.s0)))
		if h != nil {
			lt.demux = append(lt.demux, ms(h.w0.Sub(b.out)))
		} else {
			lt.demux = append(lt.demux, ms(s.end.Sub(b.out)))
		}
		lt.fills[s.resp.BatchID] = s.resp.BatchFill
	}
	return lt
}

// budget compares the round-trip median with the sum of the blocking-path
// layers' median self times. Medians do not add exactly, so the gap is
// checked against budgetTolerance of the round-trip median.
const budgetTolerance = 0.15

type budgetRow struct {
	layer  string
	selfMS float64
}

func (lt layerTimes) budget() (rows []budgetRow, rt, gap float64) {
	rt = median(lt.roundTrip)
	sum := 0.0
	for _, l := range budgetLayers {
		v := median(lt.self[l])
		rows = append(rows, budgetRow{l, v})
		sum += v
	}
	return rows, rt, rt - sum
}

func fmtBudget(rows []budgetRow, rt, gap float64) string {
	s := fmt.Sprintf("  layer budget (median self time along the blocking path; tolerance %.0f%% of the round trip):\n", budgetTolerance*100)
	for _, r := range rows {
		s += fmt.Sprintf("    %-8s %9.3f ms  %5.1f%%\n", r.layer, r.selfMS, 100*ratio(r.selfMS, rt))
	}
	verdict := "within tolerance"
	if gap > budgetTolerance*rt || -gap > budgetTolerance*rt {
		verdict = "OUTSIDE tolerance"
	}
	s += fmt.Sprintf("    round trip p50 %.3f ms, unexplained %.3f ms (%s)\n", rt, gap, verdict)
	return s
}
