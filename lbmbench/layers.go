package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/resil"
	"sunwaylb/internal/serve"
	"sunwaylb/internal/swio"
	"sunwaylb/internal/trace"
)

// probeBudget is the minimum time each per-layer timing probe spends
// repeating its call.
const probeBudget = 400 * time.Millisecond

// timeCalls repeats fn (after one warm-up call) for at least budget and
// minReps calls and returns the seconds of each call.
func timeCalls(budget time.Duration, minReps int, fn func()) []float64 {
	fn()
	var ts []float64
	start := time.Now()
	for len(ts) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts
}

// fastMs is the fast-quartile call time in milliseconds.
func fastMs(ts []float64) float64 { return 1e3 * fastQuartile(ts) }

// layerConfig says which lattice, boundary set, kernel call and
// distributed configuration the per-layer probes of a workload use.
type layerConfig struct {
	// newLattice builds the lattice the workload steps: the whole lattice
	// for a local run, one rank's block for a distributed one.
	newLattice func() (*core.Lattice, error)
	bcs        *boundary.Set
	kernel     func(l *core.Lattice)
	// psolve is the distributed configuration for the mpi, psolve and
	// resil probes, run for psolveSteps steps.
	psolve      psolve.Options
	psolveSteps int
	// patchSpec and ckptSpec are the serve-mix jobs behind the patch and
	// swio probes.
	patchSpec, ckptSpec serve.JobSpec
}

// channelOptions is the psolve configuration sunwaylb -preset channel
// -decomp 2x1 -nx 28 -ny 14 -nz 14 builds.
func channelOptions() psolve.Options {
	u := 0.05
	return psolve.Options{
		GNX: 28, GNY: 14, GNZ: 14, PX: 2, PY: 1, Tau: 0.7,
		FaceBC: map[core.Face]boundary.Condition{
			core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{u, 0, 0}},
			core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
		},
		PeriodicY: true, PeriodicZ: true,
		Init:     func(x, y, z int) (float64, float64, float64, float64) { return 1, u, 0, 0 },
		OnTheFly: true,
	}
}

// layerConfigFor returns the probe configuration of a workload. Layers a
// workload does not call are probed on the configuration of the workload
// that does (psolve on channel-2x1, patch and swio on serve-mix), so
// every row is a measurement.
func layerConfigFor(workload string, gen *jobGen) layerConfig {
	cfg := layerConfig{
		psolve:      channelOptions(),
		psolveSteps: 250,
		patchSpec:   gen.pools[1][0],
		kernel:      func(l *core.Lattice) { l.StepFused() },
	}
	for _, sp := range gen.pools[0] {
		if sp.Case.CheckpointEvery > 0 {
			cfg.ckptSpec = sp
			break
		}
	}
	switch workload {
	case "cavity-cli":
		cfg.newLattice = func() (*core.Lattice, error) {
			return core.NewLattice(&lattice.D3Q19, 144, 144, 144, 0.56)
		}
		var s boundary.Set
		s.Add(
			&boundary.NoSlip{Face: core.FaceXMin}, &boundary.NoSlip{Face: core.FaceXMax},
			&boundary.NoSlip{Face: core.FaceZMin}, &boundary.NoSlip{Face: core.FaceZMax},
			&boundary.NoSlip{Face: core.FaceYMin},
			&boundary.MovingNoSlip{Face: core.FaceYMax, U: [3]float64{0.1, 0, 0}},
		)
		cfg.bcs = &s
		cfg.kernel = func(l *core.Lattice) { l.StepFusedParallel(0) }
	case "channel-2x1":
		cfg.newLattice = func() (*core.Lattice, error) {
			l, err := core.NewLattice(&lattice.D3Q19, 14, 14, 14, 0.7)
			if err == nil {
				l.InitEquilibrium(1, 0.05, 0, 0)
			}
			return l, err
		}
		bc := channelOptions().FaceBC
		var s boundary.Set
		s.Add(bc[core.FaceXMin], bc[core.FaceXMax])
		cfg.bcs = &s
	default: // serve-mix
		sp := gen.pools[0][0]
		opts, _ := serve.BuildOptions(sp)
		cfg.psolve, cfg.psolveSteps = opts, sp.Case.Steps
		cfg.newLattice = func() (*core.Lattice, error) {
			l, err := core.NewLattice(&lattice.D3Q19, sp.Case.NX/2, sp.Case.NY, sp.Case.NZ, sp.Case.Tau)
			if err == nil {
				l.InitEquilibrium(1, 0.02, 0.01, 0)
			}
			return l, err
		}
		var s boundary.Set
		s.Add(&boundary.Periodic{Axis: 2}) // the periodic box's only local condition
		cfg.bcs = &s
	}
	return cfg
}

// layerMetrics collects per-layer metrics; probe failures are errors.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// probeCore times the kernel call, the boundary set and the halo calls on
// the workload's lattice. The caller derives core.roofline_pct from
// core.gbps once the host triad is measured.
func probeCore(m layerMetrics, cfg layerConfig) error {
	l, err := cfg.newLattice()
	if err != nil {
		return err
	}
	fluid := float64(l.FluidCells())
	q := float64(l.Desc.Q)
	kernel := timeCalls(probeBudget, 5, func() { cfg.kernel(l) })
	kernelS := fastQuartile(kernel)
	// Computed traffic: one read and one write of every population plus
	// one flag byte per allocated cell, per fluid cell. Write-allocate
	// and cache misses are not counted.
	bpc := (2*q*8 + 1) * float64(l.N) / fluid
	gbps := bpc * fluid / kernelS / 1e9
	state := 0.0
	for _, f := range l.F {
		state += 8 * float64(len(f))
	}
	m.set("core.kernel_ms_per_step", 1e3*kernelS, "ms")
	m.set("core.bytes_per_cell", bpc, "B/cell")
	m.set("core.gbps", gbps, "GB/s")
	m.set("core.state_mb", state/1e6, "MB")

	m.set("boundary.apply_ms_per_step", fastMs(timeCalls(probeBudget, 5, func() { cfg.bcs.Apply(l) })), "ms")

	faceCells := l.FaceCells(core.FaceXMin)
	buf := make([]float64, faceCells*l.Desc.Q)
	flags := make([]core.CellType, faceCells)
	m.set("halo.pack_ms_per_step", fastMs(timeCalls(probeBudget, 5, func() {
		l.PackFace(core.FaceXMin, buf, flags)
		l.PackFace(core.FaceXMax, buf, flags)
	})), "ms")
	l.PackFace(core.FaceXMin, buf, flags)
	m.set("halo.unpack_ms_per_step", fastMs(timeCalls(probeBudget, 5, func() {
		l.UnpackFace(core.FaceXMin, buf, flags)
		l.UnpackFace(core.FaceXMax, buf, flags)
	})), "ms")
	m.set("halo.periodic_ms_per_step", fastMs(timeCalls(probeBudget, 5, func() {
		l.PeriodicAxis(1)
		l.PeriodicAxis(2)
	})), "ms")
	// Both x faces leave and enter the rank each step: populations plus
	// one flag byte per face cell.
	m.set("halo.bytes_per_step", float64(2*faceCells)*(q*8+1), "B")
	return nil
}

// msgCounter is an mpi.FaultHook that only counts: every message is
// delivered once, unchanged.
type msgCounter struct {
	on          atomic.Bool
	msgs, bytes atomic.Int64
}

func (c *msgCounter) OnSend(src, dst, tag int, data []float64, aux []byte) int {
	if c.on.Load() {
		c.msgs.Add(1)
		c.bytes.Add(int64(8*len(data) + len(aux)))
	}
	return 1
}

// probeMPI steps the psolve configuration in-process and counts, over
// the stepping phase only, user messages and their bytes (through a
// counting fault hook) and heap bytes allocated (runtime.MemStats deltas
// around Solver.Step). It then times Solver.ResilCapture of L1–L3.
func probeMPI(m layerMetrics, cfg layerConfig) error {
	opts := cfg.psolve
	ranks := opts.PX * opts.PY
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return err
	}
	counter := &msgCounter{}
	w.SetFaultHook(counter)
	steps := cfg.psolveSteps
	var allocPerStep float64
	var captures []float64
	store, serr := newStore(opts)
	if serr != nil {
		return serr
	}
	err = mpi.RunWorld(w, func(c *mpi.Comm) error {
		s, err := psolve.New(c, opts)
		if err != nil {
			return err
		}
		s.Step() // warm-up: first exchange and buffers
		c.Barrier()
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
			counter.on.Store(true)
		}
		c.Barrier()
		for i := 0; i < steps; i++ {
			s.Step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			counter.on.Store(false)
			runtime.ReadMemStats(&after)
			allocPerStep = float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
		}
		c.Barrier()
		for i := 0; i < 12; i++ {
			t0 := time.Now()
			if err := s.ResilCapture(store, resil.L1|resil.L2|resil.L3); err != nil {
				return err
			}
			if c.Rank() == 0 {
				captures = append(captures, time.Since(t0).Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("mpi.msgs_per_step", float64(counter.msgs.Load())/float64(steps), "count")
	m.set("mpi.bytes_per_step", float64(counter.bytes.Load())/float64(steps), "B")
	m.set("mpi.alloc_bytes_per_step", allocPerStep, "B")
	m.set("resil.capture_ms", fastMs(captures), "ms")
	return nil
}

// newStore builds the L1–L3 snapshot store for a psolve configuration,
// with parity groups of two ranks.
func newStore(opts psolve.Options) (*resil.Store, error) {
	blocks, err := decomp.Decompose2D(opts.GNX, opts.GNY, opts.GNZ, opts.PX, opts.PY)
	if err != nil {
		return nil, err
	}
	return resil.NewStore(opts.PX*opts.PY, 2, blocks)
}

// probePsolveTrace runs the psolve configuration with a tracer and reads
// its phases through trace.Analyze: per rank and step, the step, compute,
// bc and halo spans, the halo-x-wait span as the mpi wait, and the
// wall-clock imbalance.
func probePsolveTrace(m layerMetrics, cfg layerConfig) error {
	opts := cfg.psolve
	tr := trace.New(trace.Options{})
	opts.Trace = tr
	if _, err := psolve.Run(opts, cfg.psolveSteps); err != nil {
		return err
	}
	var pt phaseTotals
	pt.add(trace.Analyze(tr.Events()))
	psolvePhaseMetrics(m, pt)
	return nil
}

// psolvePhaseMetrics turns summed phase totals into per-rank-step times.
func psolvePhaseMetrics(m layerMetrics, pt phaseTotals) {
	n := float64(pt.StepSpans)
	if n == 0 {
		n = 1
	}
	ph := pt.Phases
	m.set("psolve.step_ms", 1e3*ph["step"]/n, "ms")
	m.set("psolve.compute_ms", 1e3*(ph["compute-inner"]+ph["compute-boundary"]+ph["compute"])/n, "ms")
	m.set("psolve.bc_ms", 1e3*ph["bc"]/n, "ms")
	m.set("psolve.halo_ms", 1e3*(ph["halo-x-wait"]+ph["halo-x"]+ph["halo-y"])/n, "ms")
	m.set("mpi.wait_ms_per_step", 1e3*ph["halo-x-wait"]/n, "ms")
	m.set("psolve.imbalance", median(pt.Imbalance), "ratio")
}

// probePatch times solo patch.Run of the serve-mix patch job.
func probePatch(m layerMetrics, cfg layerConfig) error {
	opts, err := serve.BuildPatchOptions(cfg.patchSpec)
	if err != nil {
		return err
	}
	steps := cfg.patchSpec.Case.Steps
	var runErr error
	migrations := 0
	ts := timeCalls(probeBudget, 3, func() {
		_, st, err := patch.Run(opts, steps)
		if err != nil {
			runErr = err
			return
		}
		migrations = st.Migrations
	})
	if runErr != nil {
		return runErr
	}
	m.set("patch.step_ms", fastMs(ts)/float64(steps), "ms")
	m.set("patch.migrations", float64(migrations), "count")
	return nil
}

// probeCheckpoint times swio.Checkpoint of a lattice the size of the
// serve-mix disk-writing job.
func probeCheckpoint(m layerMetrics, cfg layerConfig, work string) error {
	cs := cfg.ckptSpec.Case
	l, err := core.NewLattice(&lattice.D3Q19, cs.NX, cs.NY, cs.NZ, cs.Tau)
	if err != nil {
		return err
	}
	l.InitEquilibrium(1, 0.02, 0.01, 0)
	path := filepath.Join(work, "probe.cpk")
	var werr error
	ts := timeCalls(probeBudget, 5, func() {
		if err := swio.Checkpoint(path, l); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	os.Remove(path)
	ms := fastMs(ts)
	m.set("swio.checkpoint_ms", ms, "ms")
	m.set("swio.checkpoint_mb_per_s", float64(fi.Size())/1e6/(ms/1e3), "MB/s")
	return nil
}

// serveLayerMetrics reads the serve, resil and goroutine rows from a
// serve-mix report. Snapshot bytes come from the psolve jobs (client 0),
// since patch jobs report no byte ledger in their RecoveryStats; L4
// bytes from those that write disk checkpoints.
func serveLayerMetrics(m layerMetrics, rep serveReport) {
	var queued, run, over []float64
	var snap [4][]float64
	for _, j := range rep.Jobs {
		if j.Probe || j.State != string(serve.StateDone) {
			continue
		}
		queued = append(queued, j.QueuedS)
		run = append(run, j.RunS)
		over = append(over, j.LatencyS-j.QueuedS-j.RunS)
		if j.Client != 0 {
			continue
		}
		for l := range snap {
			if l < 3 || j.Disk {
				snap[l] = append(snap[l], float64(j.SnapBytes[l]))
			}
		}
	}
	m.set("serve.queue_s_p50", median(queued), "s")
	m.set("serve.run_s_p50", median(run), "s")
	m.set("serve.overhead_s_p50", median(over), "s")
	m.set("serve.goroutines_peak", float64(rep.GoroutinesPeak), "count")
	for l := range snap {
		m.set(fmt.Sprintf("resil.snapshot_bytes_l%d", l+1), median(snap[l]), "B")
	}
}
