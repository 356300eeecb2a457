package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// params.json is the one place the system-under-test and workload settings
// live, so drift from mvtee-serve's defaults shows in review and every result
// record carries the exact parameters it ran with.
//
//go:embed params.json
var paramsJSON []byte

// Params mirrors params.json.
type Params struct {
	System    SystemParams              `json:"system"`
	Harness   HarnessParams             `json:"harness"`
	Workloads map[string]WorkloadParams `json:"workloads"`
}

// SystemParams is mvtee-serve's default deployment.
type SystemParams struct {
	Model       string   `json:"model"`
	Scale       float64  `json:"scale"`
	InputSize   int      `json:"input_size"`
	Partitions  int      `json:"partitions"`
	MVXStage    int      `json:"mvx_stage"`
	MVXVariants []string `json:"mvx_variants"`
	FastVariant string   `json:"fast_variant"`
	Criterion   struct {
		Metric string  `json:"metric"`
		RTol   float64 `json:"rtol"`
		ATol   float64 `json:"atol"`
	} `json:"criterion"`
	Encrypt          bool `json:"encrypt"`
	AuditHeadEvery   int  `json:"audit_head_every"`
	AuditSampleEvery int  `json:"audit_sample_every"`
	ControlEpochMS   int  `json:"control_epoch_ms"`
	MaxBatch         int  `json:"max_batch"`
	MaxDelayMS       int  `json:"max_delay_ms"`
	TenantQueue      int  `json:"tenant_queue"`
	GlobalQueue      int  `json:"global_queue"`
	TraceRing        int  `json:"trace_ring"`
}

// HarnessParams sizes the benchmark's own machinery.
type HarnessParams struct {
	PoolSize      int     `json:"pool_size"`
	WarmupS       float64 `json:"warmup_s"`
	DeadlineS     float64 `json:"deadline_s"`
	SetupReps     int     `json:"setup_reps"`
	UntracedShare float64 `json:"untraced_share"`
	SubWindows    int     `json:"sub_windows"`
}

// WorkloadParams describes one traffic mix. Closed loops set Clients and
// Protocols; the open loop sets RateRPS.
type WorkloadParams struct {
	Clients   int      `json:"clients,omitempty"`
	Protocols []string `json:"protocols,omitempty"`
	Tenants   []string `json:"tenants"`
	RateRPS   float64  `json:"rate_rps,omitempty"`
	Replicas  int      `json:"replicas,omitempty"`
	Verify    int      `json:"verify,omitempty"`
	Forward   string   `json:"forward,omitempty"`
	Sync      bool     `json:"sync,omitempty"`
}

func (w WorkloadParams) openLoop() bool { return w.RateRPS > 0 }
func (w WorkloadParams) cluster() bool  { return w.Replicas > 1 }

func loadParams() (Params, error) {
	var p Params
	if err := json.Unmarshal(paramsJSON, &p); err != nil {
		return p, fmt.Errorf("params.json: %w", err)
	}
	if p.System.Criterion.Metric != "allclose" {
		return p, fmt.Errorf("params.json: criterion %q unsupported (want allclose)", p.System.Criterion.Metric)
	}
	if p.Harness.SubWindows < 1 {
		return p, fmt.Errorf("params.json: sub_windows must be at least 1")
	}
	for name, w := range p.Workloads {
		if w.openLoop() == (w.Clients > 0) {
			return p, fmt.Errorf("params.json: workload %s must set exactly one of clients or rate_rps", name)
		}
		if w.Clients > 0 && len(w.Protocols) != w.Clients {
			return p, fmt.Errorf("params.json: workload %s: %d protocols for %d clients", name, len(w.Protocols), w.Clients)
		}
		if len(w.Tenants) == 0 {
			return p, fmt.Errorf("params.json: workload %s has no tenants", name)
		}
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
