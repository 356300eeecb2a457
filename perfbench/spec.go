package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec is BENCHMARK.json: the workloads and metrics this benchmark
// promises to report.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate applies the naming rules and the bound limits.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end lacks setup_s in s, lower better")
	}
	for _, m := range s.PerLayer {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
		}
	}
	return nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// checkEmitted verifies a result carries exactly the declared metrics of its
// kind, each in its declared unit.
func checkEmitted(declared []specMetric, got map[string]metricVal) error {
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	var missing, extra []string
	for n, u := range want {
		v, ok := got[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case v.Unit != u:
			return fmt.Errorf("metric %s reported in %s, declared in %s", n, v.Unit, u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return nil
}
