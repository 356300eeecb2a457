package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested children count once", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The budget's self times must add up to each request's round trip: the
// spans tile the request with no gap and no double count.
func TestRequestSpansTileRoundTrip(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	b := &batchRec{s0: at(3), s1: at(4), out: at(12)}
	for _, tc := range []struct {
		name string
		h    *handlerRec
		want map[string]float64
	}{
		{"http", &handlerRec{h0: at(1), w0: at(13), h1: at(15)},
			map[string]float64{layerCodec: 1 + 2 + 1, layerQueue: 2, layerBatch: 9, layerDemux: 1}},
		{"in-process", nil,
			map[string]float64{layerCodec: 0, layerQueue: 3, layerBatch: 9, layerDemux: 4}},
	} {
		s := &sample{tag: 7, proto: "json", start: at(0), end: at(16)}
		spans := tr.requestSpans(s, b, tc.h)
		self := layerSelf(spans)
		total := 0.0
		for _, l := range budgetLayers {
			if self[l] != tc.want[l] {
				t.Errorf("%s: %s self %.1f ms, want %.1f", tc.name, l, self[l], tc.want[l])
			}
			total += self[l]
		}
		if total != 16 {
			t.Errorf("%s: self times sum to %.1f ms, round trip is 16", tc.name, total)
		}
	}
}

func TestBudgetGap(t *testing.T) {
	lt := layerTimes{
		roundTrip: []float64{10, 20, 30},
		self: map[string][]float64{
			layerCodec: {1, 1, 1}, layerQueue: {2, 2, 2}, layerBatch: {5, 15, 25}, layerDemux: {1, 1, 1},
		},
	}
	rows, rt, gap := lt.budget()
	if rt != 20 || gap != 1 || len(rows) != len(budgetLayers) {
		t.Fatalf("budget: rt %v gap %v rows %d; want rt 20, gap 1 (20 - 1 - 2 - 15 - 1)", rt, gap, len(rows))
	}
}
