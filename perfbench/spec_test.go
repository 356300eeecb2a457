package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestBenchmarkJSONValidates(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := p.Workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no parameters in params.json", w.Name)
		}
	}
	all := allWorkloads(spec, p)
	if len(all) != len(p.Workloads) || all[0] != spec.Workloads[0].Name {
		t.Fatalf("allWorkloads = %v: want the gated workloads first, then every other params.json workload", all)
	}
}

func TestSpecValidationRejects(t *testing.T) {
	bound := func(v float64) *float64 { return &v }
	good := func() *benchSpec {
		return &benchSpec{
			RunSeconds: 20,
			Workloads:  []specWorkload{{"a", "why a"}, {"b", "why b"}},
			EndToEnd: []specMetric{
				{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.1)},
				{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
			},
			PerLayer: []specMetric{{Name: "serve.queue_wait_ms.p50", Unit: "ms", Better: "lower"}},
		}
	}
	if err := good().validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
	for name, mutate := range map[string]func(*benchSpec){
		"one workload":         func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"bad workload name":    func(s *benchSpec) { s.Workloads[0].Name = "-a" },
		"duplicate name":       func(s *benchSpec) { s.PerLayer[0].Name = "latency_p50_ms" },
		"bound too wide":       func(s *benchSpec) { s.EndToEnd[0].Bound = bound(0.3) },
		"no bound":             func(s *benchSpec) { s.EndToEnd[0].Bound = nil },
		"per-layer bound":      func(s *benchSpec) { s.PerLayer[0].Bound = bound(0.1) },
		"no setup_s":           func(s *benchSpec) { s.EndToEnd = s.EndToEnd[:1] },
		"bad unit":             func(s *benchSpec) { s.PerLayer[0].Unit = "milli seconds" },
		"bad better":           func(s *benchSpec) { s.PerLayer[0].Better = "smaller" },
		"run_seconds too long": func(s *benchSpec) { s.RunSeconds = 61 },
		"name too long":        func(s *benchSpec) { s.PerLayer[0].Name = strings.Repeat("x", 65) },
	} {
		s := good()
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckEmitted(t *testing.T) {
	declared := []specMetric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	if err := checkEmitted(declared, map[string]metricVal{"a": {Unit: "ms"}, "b": {Unit: "s"}}); err != nil {
		t.Fatalf("matching metrics refused: %v", err)
	}
	for name, got := range map[string]map[string]metricVal{
		"missing":      {"a": {Unit: "ms"}},
		"undeclared":   {"a": {Unit: "ms"}, "b": {Unit: "s"}, "c": {Unit: "s"}},
		"unit differs": {"a": {Unit: "ms"}, "b": {Unit: "ms"}},
	} {
		if err := checkEmitted(declared, got); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// params.json must describe mvtee-serve's default deployment: compare it
// with the daemon's flag defaults so drift shows as a failing test.
func TestParamsMatchDaemonDefaults(t *testing.T) {
	src, err := os.ReadFile("../cmd/mvtee-serve/main.go")
	if err != nil {
		t.Skipf("daemon source not present: %v", err)
	}
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	s := p.System
	for flagName, want := range map[string]string{
		"stages":           itoa(s.Partitions),
		"mvx-stage":        itoa(s.MVXStage),
		"max-batch":        itoa(s.MaxBatch),
		"max-delay":        itoa(s.MaxDelayMS) + "*time.Millisecond",
		"tenant-queue":     itoa(s.TenantQueue),
		"global-queue":     itoa(s.GlobalQueue),
		"control-epoch":    itoa(s.ControlEpochMS) + "*time.Millisecond",
		"audit-head-every": itoa(s.AuditHeadEvery),
		"audit-sample":     itoa(s.AuditSampleEvery),
		"trace-ring":       itoa(s.TraceRing),
		"model":            `"` + s.Model + `"`,
	} {
		re := regexp.MustCompile(`flag\.\w+\("` + regexp.QuoteMeta(flagName) + `",\s*([^,]+),`)
		m := re.FindSubmatch(src)
		if m == nil {
			t.Errorf("flag -%s not found in mvtee-serve", flagName)
			continue
		}
		if got := strings.ReplaceAll(string(m[1]), " ", ""); got != want {
			t.Errorf("mvtee-serve -%s defaults to %s, params.json says %s", flagName, got, want)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
