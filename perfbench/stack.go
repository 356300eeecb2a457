package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	mvtee "repro"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// stackHooks are the traced run's wrappers; the zero value wraps nothing.
type stackHooks struct {
	engine  func(serve.Engine) serve.Engine
	handler func(http.Handler) http.Handler
	link    func(net.Conn) net.Conn
}

// stack is one deployed serving system: mvtee-serve's in-process assembly,
// or (with replicas > 1) its cluster assembly over in-process replicas.
type stack struct {
	srv     *serve.Server
	baseURL string
	reps    []*replica

	setup       time.Duration // BuildBundle start to ready to serve
	build       time.Duration // summed over replicas
	deploy      time.Duration // Deploy + RebuildEngine + Start, summed
	mvxVariants map[string]bool

	closers []func() // run last to first
}

// replica is one deployment with its audit recorder.
type replica struct {
	bundle *core.Bundle
	dep    *core.Deployment
	rec    *transcript.Recorder
	server atomic.Pointer[cluster.ReplicaServer]
}

func plans(s SystemParams) []mvtee.PartitionPlan {
	out := make([]mvtee.PartitionPlan, s.Partitions)
	for i := range out {
		out[i] = mvtee.PartitionPlan{Variants: []string{s.FastVariant}}
	}
	if s.MVXStage >= 0 && s.MVXStage < s.Partitions {
		out[s.MVXStage] = mvtee.PartitionPlan{Variants: append([]string(nil), s.MVXVariants...)}
	}
	return out
}

func criterion(s SystemParams) check.Criterion {
	return check.Criterion{Metric: check.AllClose, RTol: s.Criterion.RTol, ATol: s.Criterion.ATol}
}

// deployReplica runs the offline build and the attested bring-up with the
// audit transcript installed, as mvtee-serve does. A cluster replica also
// streams per-checkpoint digests to its replica server, as mvtee-monitor
// -replica-listen does.
func deployReplica(s SystemParams, clustered bool) (*replica, time.Duration, time.Duration, error) {
	t0 := time.Now()
	bundle, err := mvtee.BuildBundle(mvtee.OfflineConfig{
		ModelName:        s.Model,
		ModelConfig:      mvtee.ModelConfig{Scale: s.Scale, InputSize: s.InputSize},
		PartitionTargets: []int{s.Partitions},
		Specs:            mvtee.RealSetupSpecs(),
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build bundle: %w", err)
	}
	t1 := time.Now()
	dep, err := mvtee.Deploy(bundle, 0, mvtee.DeployConfig{
		MVX: &mvtee.MVXConfig{
			Model:    s.Model,
			Plans:    plans(s),
			Criteria: []mvtee.Criterion{criterion(s)},
		},
		Encrypt:          s.Encrypt,
		DeferEngineStart: true,
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("deploy: %w", err)
	}
	r := &replica{bundle: bundle, dep: dep}
	if clustered {
		dep.Monitor.SetDigestSink(func(batchID uint64, stage int, d check.Digest) {
			if srv := r.server.Load(); srv != nil {
				srv.StageDigestSink(batchID, stage, d)
			}
		})
	}
	r.rec = transcript.NewRecorder(transcript.Config{
		Signer:      dep.Monitor.Enclave(),
		Model:       transcript.Hash(bundle.ModelDigest()),
		Bindings:    func() transcript.Hash { return dep.Monitor.BindingsDigest() },
		HeadEvery:   s.AuditHeadEvery,
		SampleEvery: s.AuditSampleEvery,
		Metrics:     telemetry.Default,
	})
	dep.Monitor.SetTranscript(r.rec)
	if _, err := dep.RebuildEngine(); err != nil {
		r.close()
		return nil, 0, 0, fmt.Errorf("rebuild engine with transcript: %w", err)
	}
	dep.Start()
	return r, t1.Sub(t0), time.Since(t1), nil
}

func (r *replica) close() {
	r.dep.Close()
	r.rec.Close()
}

// buildStack deploys the system for one workload and starts its front
// door. The returned stack's setup time runs from the first BuildBundle to
// the listener accepting connections.
func buildStack(p Params, wp WorkloadParams, hooks stackHooks) (st *stack, err error) {
	sys := p.System
	st = &stack{mvxVariants: map[string]bool{}}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	t0 := time.Now()
	n := max(wp.Replicas, 1)
	for i := 0; i < n; i++ {
		r, b, d, err := deployReplica(sys, wp.cluster())
		if err != nil {
			return st, err
		}
		st.reps = append(st.reps, r)
		st.closers = append(st.closers, r.close)
		st.build += b
		st.deploy += d
		for _, rec := range r.dep.Monitor.Bindings() {
			if rec.Partition == sys.MVXStage {
				st.mvxVariants[rec.VariantID] = true
			}
		}
	}
	bundle := st.reps[0].bundle
	shapes := make(map[string][]int, len(bundle.Model.Inputs))
	for _, vi := range bundle.Model.Inputs {
		shapes[vi.Name] = vi.Shape
	}

	var eng serve.Engine
	var pipeline control.Pipeline
	var spares control.SparePool
	var events *telemetry.Bus[monitor.Event]
	if wp.cluster() {
		router, err := st.startRouter(sys, wp, shapes, hooks.link)
		if err != nil {
			return st, err
		}
		eng, pipeline = router, router
		events = telemetry.NewBus[monitor.Event](256)
	} else {
		dep := st.reps[0].dep
		eng, pipeline, spares, events = dep.Engine, dep.Engine, dep.Monitor, dep.Engine.EventBus()
	}
	if hooks.engine != nil {
		eng = hooks.engine(eng)
		if c, ok := eng.(interface{ close() }); ok {
			st.closers = append(st.closers, c.close)
		}
	}

	st.srv = serve.New(eng, serve.Config{
		MaxBatch:    sys.MaxBatch,
		MaxDelay:    time.Duration(sys.MaxDelayMS) * time.Millisecond,
		TenantQueue: sys.TenantQueue,
		GlobalQueue: sys.GlobalQueue,
		ItemShapes:  shapes,
	})
	st.closers = append(st.closers, st.srv.Close)
	ctl := control.New(control.Config{
		Epoch:    time.Duration(sys.ControlEpochMS) * time.Millisecond,
		Frontend: st.srv,
		Pipeline: pipeline,
		Spares:   spares,
		Events:   events,
	})
	ctl.Start()
	st.closers = append(st.closers, ctl.Stop)

	if !wp.openLoop() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, fmt.Errorf("listen: %w", err)
		}
		h := serve.Handler(st.srv)
		if hooks.handler != nil {
			h = hooks.handler(h)
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second}
		served := make(chan struct{})
		go func() {
			defer close(served)
			if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Printf("perfbench: http server: %v\n", err)
			}
		}()
		st.closers = append(st.closers, func() { _ = hs.Close(); <-served })
		st.baseURL = "http://" + ln.Addr().String()
	}
	st.setup = time.Since(t0)
	return st, nil
}

// startRouter links every replica to a cluster router the way mvtee-serve
// -replicas links mvtee-monitor replicas: an attested sealed channel per
// replica (here over a net.Pipe), the replica protocol, digest voting.
func (st *stack) startRouter(sys SystemParams, wp WorkloadParams, shapes map[string][]int, link func(net.Conn) net.Conn) (*cluster.Router, error) {
	if wp.Forward != "digest" {
		return nil, fmt.Errorf("forward mode %q: the benchmark runs mvtee-serve's default, digest", wp.Forward)
	}
	var reps []cluster.Replica
	var hello wire.ReplicaHello
	for i, r := range st.reps {
		routerSide, replicaSide := net.Pipe()
		if link != nil {
			routerSide = link(routerSide)
		}
		monEncl := r.dep.Monitor.Enclave()
		h := wire.ReplicaHello{
			ID:           fmt.Sprintf("replica-%d", i),
			Variants:     len(r.dep.Monitor.Bindings()),
			GraphInputs:  []string{r.bundle.Model.Inputs[0].Name},
			GraphOutputs: r.bundle.Model.Outputs,
			ItemShapes:   shapes,
		}
		served := make(chan struct{})
		go func(r *replica) {
			defer close(served)
			conn, err := securechan.Server(replicaSide, monEncl, nil)
			if err != nil {
				_ = replicaSide.Close()
				return
			}
			srv := cluster.NewReplicaServer(conn, r.dep.Engine, cluster.ReplicaServerOptions{
				Hello:  h,
				Spares: r.dep.Monitor.SpareCount,
			})
			r.server.Store(srv)
			_ = srv.Run()
			r.server.Store(nil)
			_ = conn.Close()
		}(r)
		// The router verifies each replica monitor's attestation against
		// the platform that launched it, as -replica-bundle pins it.
		verify, err := pinMonitor(r.dep)
		if err != nil {
			_ = routerSide.Close()
			<-served
			return nil, err
		}
		conn, err := securechan.Client(routerSide, nil, verify)
		if err != nil {
			_ = routerSide.Close()
			<-served
			return nil, fmt.Errorf("replica %d handshake: %w", i, err)
		}
		rem, err := cluster.NewRemote(conn)
		if err != nil {
			_ = conn.Close()
			<-served
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		// Replicas close after the router: the router closes its remotes,
		// which ends each replica server's session.
		st.closers = append(st.closers, func() { _ = rem.Close(); <-served })
		reps = append(reps, rem)
		if i == 0 {
			hello = rem.Hello()
		}
	}
	rec := transcript.NewRecorder(transcript.Config{
		HeadEvery:   sys.AuditHeadEvery,
		SampleEvery: sys.AuditSampleEvery,
		Metrics:     telemetry.Default,
	})
	st.closers = append(st.closers, rec.Close)
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:     reps,
		Verify:       wp.Verify,
		Mode:         cluster.DigestForward,
		Sync:         wp.Sync,
		PlacementKey: hello.ID,
		Metrics:      telemetry.Default,
		Tracer:       telemetry.DefaultTracer,
		Transcript:   rec,
	})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { _ = router.Close() })
	return router, nil
}

// pinMonitor returns a peer check that accepts only the monitor image
// launched by this deployment's platform.
func pinMonitor(dep *core.Deployment) (securechan.VerifyPeer, error) {
	pub, err := dep.PlatformIdentity()
	if err != nil {
		return nil, err
	}
	v := enclave.NewVerifier()
	if err := v.TrustIdentity(pub); err != nil {
		return nil, err
	}
	want := enclave.Measure(core.MonitorImage())
	return func(r *enclave.Report) error {
		if r == nil {
			return errors.New("replica monitor presented no attestation report")
		}
		return v.Verify(r, []enclave.Measurement{want})
	}, nil
}

// close tears the stack down, front door first. A teardown that hangs (a
// batch lost inside the router never resolves) is abandoned after timeout;
// the process exits right after, which ends every goroutine it left.
func (st *stack) close() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := len(st.closers) - 1; i >= 0; i-- {
			st.closers[i]()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Println("perfbench: stack teardown did not finish in 10s; abandoning it")
	}
}
