package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// regSnap is a registry snapshot, read through the public Snapshot method.
type regSnap []telemetry.MetricSnapshot

func snapRegistry() regSnap { return telemetry.Default.Snapshot() }

func matches(m telemetry.MetricSnapshot, name string, labels map[string]string) bool {
	if m.Name != name {
		return false
	}
	for k, v := range labels {
		if m.Labels[k] != v {
			return false
		}
	}
	return true
}

// value sums counter or gauge values over the series matching labels.
func (r regSnap) value(name string, labels map[string]string) float64 {
	var v float64
	for _, m := range r {
		if matches(m, name, labels) {
			v += float64(m.Value)
		}
	}
	return v
}

// hist sums histogram count and sum over the matching series.
func (r regSnap) hist(name string, labels map[string]string) (count, sum float64) {
	for _, m := range r {
		if matches(m, name, labels) {
			count += float64(m.Count)
			sum += float64(m.Sum)
		}
	}
	return count, sum
}

// regDelta is the change of the registry across the measured window.
type regDelta struct{ before, after regSnap }

func (d regDelta) counter(name string, labels map[string]string) float64 {
	return d.after.value(name, labels) - d.before.value(name, labels)
}

func (d regDelta) histMean(name string, labels map[string]string) float64 {
	c0, s0 := d.before.hist(name, labels)
	c1, s1 := d.after.hist(name, labels)
	return ratio(s1-s0, c1-c0)
}

// runtimeSnap reads the Go runtime's allocation and GC CPU counters.
type runtimeSnap struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnap{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// spansOf returns the program's own spans (read from its span ring) named
// name that started inside the window.
func spansOf(all []telemetry.Span, name string, w window, keep func(telemetry.Span) bool) []float64 {
	var out []float64
	t0, t1 := w.t0.UnixNano(), w.t1.UnixNano()
	for _, s := range all {
		if s.Name == name && s.Start >= t0 && s.Start < t1 && (keep == nil || keep(s)) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// replayTimes times infer.New(...).Run on the bundle's own pool subgraphs:
// for every partition its fast-path variant, and for the MVX partition every
// variant, at one batch size. The MVX stage time is its slowest variant; the
// pipeline time is the sum of the fast-path variants.
func replayTimes(b *core.Bundle, sys SystemParams, images []*tensor.Tensor, batch, reps int) (mvx, pipeline float64, err error) {
	pool := b.Pools[0]
	set := b.Sets[0]
	in, err := concatRows(images, batch)
	if err != nil {
		return 0, 0, err
	}
	values := map[string]*tensor.Tensor{b.Model.Inputs[0].Name: in}
	for pi := range set.Partitions {
		specs := []string{sys.FastVariant}
		if pi == sys.MVXStage {
			specs = sys.MVXVariants
		}
		var fastOut map[string]*tensor.Tensor
		for _, name := range specs {
			v, err := pool.Lookup(pi, name)
			if err != nil {
				return 0, 0, err
			}
			rc, err := v.Spec.RuntimeConfig()
			if err != nil {
				return 0, 0, err
			}
			ex, err := infer.New(v.Graph, rc)
			if err != nil {
				return 0, 0, fmt.Errorf("partition %d %s: %w", pi, name, err)
			}
			ins := map[string]*tensor.Tensor{}
			for _, vi := range v.Graph.Inputs {
				t, ok := values[vi.Name]
				if !ok {
					return 0, 0, fmt.Errorf("partition %d %s: input %q not produced upstream", pi, name, vi.Name)
				}
				ins[vi.Name] = t
			}
			var times []float64
			var outs map[string]*tensor.Tensor
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				outs, err = ex.Run(ins)
				if err != nil {
					return 0, 0, fmt.Errorf("partition %d %s: %w", pi, name, err)
				}
				times = append(times, ms(time.Since(t0)))
			}
			d := median(times)
			if name == sys.FastVariant {
				pipeline += d
				fastOut = outs
			}
			if pi == sys.MVXStage && d > mvx {
				mvx = d
			}
		}
		for k, t := range fastOut {
			values[k] = t
		}
	}
	return mvx, pipeline, nil
}

// concatRows stacks the first n single-row images into one batch.
func concatRows(images []*tensor.Tensor, n int) (*tensor.Tensor, error) {
	if n > len(images) {
		return nil, fmt.Errorf("batch %d exceeds pool of %d", n, len(images))
	}
	shape := images[0].Shape()
	row := len(images[0].Data())
	data := make([]float32, 0, n*row)
	for _, img := range images[:n] {
		data = append(data, img.Data()...)
	}
	shape[0] *= n
	return tensor.FromSlice(data, shape...)
}

// metricVal is one reported figure.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a percentile or mean, when it has one.
	N int `json:"n,omitempty"`
}

// layerReport accumulates per-layer metrics, noting which do not apply to
// the workload.
type layerReport struct {
	vals map[string]metricVal
	na   []string
	errs []string
}

func newLayerReport() *layerReport { return &layerReport{vals: map[string]metricVal{}} }

func (lr *layerReport) set(name, unit string, v float64, n int) {
	lr.vals[name] = metricVal{Value: v, Unit: unit, N: n}
}

func (lr *layerReport) pct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		lr.errs = append(lr.errs, name+": "+err.Error())
		return
	}
	lr.set(name, "ms", v, len(xs))
}

// notApplicable reports metrics of layers the workload does not exercise.
// The result line still carries them, as 0, so every run has the same keys;
// the record and the table mark them n/a.
func (lr *layerReport) notApplicable(unit string, names ...string) {
	for _, n := range names {
		lr.vals[n] = metricVal{Value: 0, Unit: unit}
		lr.na = append(lr.na, n)
	}
}
