package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sunwaylb/internal/config"
	"sunwaylb/internal/core"
	"sunwaylb/internal/patch"
	"sunwaylb/internal/psolve"
	"sunwaylb/internal/serve"
)

// serve-mix: a closed loop of two clients on a Workers=2 server. Each
// client keeps two jobs outstanding, so jobs queue for a slot.
const (
	serveWorkers = 2
	clientDepth  = 2
	setupProbes  = 9  // probe processes per run for the setup_s median
	specPoolSize = 12 // job specs per client: every size of the box grid
	poolPasses   = 400
)

// jobGen is the seeded serve-mix job generator: for each client a pool
// of small periodic shear boxes and a sequence of draws from it.
type jobGen struct {
	pools [2][]serve.JobSpec
	seq   [2][]int
}

// newJobGen builds the generator for a seed. Every seed gets the same
// twelve box sizes per client (16–24 × 12–16 × 8–12 cells, 72 steps), so
// the work per job averages out alike across seeds. The seed picks each
// spec's τ, which half of client 0's specs also write L4 checkpoints
// through swio, and the order of draws: a sequence of shuffled passes
// over the pool. Client 0 submits 2x1 psolve jobs, client 1 patch2 jobs.
// The same seed always yields the same jobs in the same order.
func newJobGen(seed int64) *jobGen {
	rng := rand.New(rand.NewSource(seed))
	g := &jobGen{}
	for c := 0; c < 2; c++ {
		disk := map[int]bool{}
		for _, i := range rng.Perm(specPoolSize)[:specPoolSize/2] {
			disk[i] = true
		}
		for i := 0; i < specPoolSize; i++ {
			sp := serve.JobSpec{
				Tenant: "client-a",
				Case: config.Case{
					Name:  fmt.Sprintf("shear-%c%d", 'a'+c, i),
					NX:    16 + 4*(i%3),
					NY:    12 + 4*(i/3%2),
					NZ:    8 + 4*(i/6),
					Tau:   0.6 + 0.05*float64(rng.Intn(6)),
					Steps: 72,
				},
				Decomp: "2x1",
				Levels: "123",
			}
			if c == 1 {
				sp.Tenant, sp.Decomp = "client-b", "patch2"
			} else if disk[i] {
				sp.Levels = "1234"
				sp.Case.CheckpointEvery = 8
			}
			g.pools[c] = append(g.pools[c], sp)
		}
		for p := 0; p < poolPasses; p++ {
			g.seq[c] = append(g.seq[c], rng.Perm(specPoolSize)...)
		}
	}
	return g
}

// draw returns the pool index of client c's k-th job.
func (g *jobGen) draw(c, k int) int { return g.seq[c][k%len(g.seq[c])] }

// spec returns client c's k-th job.
func (g *jobGen) spec(c, k int) serve.JobSpec { return g.pools[c][g.draw(c, k)] }

// jobRecord is one job as the client saw it.
type jobRecord struct {
	Client    int      `json:"client"`
	Pool      int      `json:"pool"`
	SubmitS   float64  `json:"submit_s"` // since window start
	DoneS     float64  `json:"done_s"`
	LatencyS  float64  `json:"latency_s"`
	QueuedS   float64  `json:"queued_s"`
	RunS      float64  `json:"run_s"`
	State     string   `json:"state"`
	Checksum  string   `json:"checksum"`
	SnapBytes [4]int64 `json:"snapshot_bytes"`
	Updates   float64  `json:"updates"`        // cells × steps
	Disk      bool     `json:"disk,omitempty"` // writes L4 checkpoints
	Probe     bool     `json:"probe,omitempty"`
	Err       string   `json:"err,omitempty"`
}

// serveReport is the serve-mix run: the set-up samples and probe jobs
// the parent collects, and the loop the serve child reports.
type serveReport struct {
	SetupS         []float64   `json:"setup_s"`
	Jobs           []jobRecord `json:"jobs"`
	WindowS        float64     `json:"window_s"`
	GoroutinesPeak int         `json:"goroutines_peak"`
}

// serveChild runs the serve-mix loop in this process and prints the
// report as JSON. The parent runs it as a child so the child's peak RSS
// is the server's alone.
func serveChild(seed int64, window time.Duration, dir string) error {
	rep, err := serveLoop(seed, window, dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// serveLoop runs the closed loop for the window on a fresh server.
func serveLoop(seed int64, window time.Duration, dir string) (rep serveReport, err error) {
	gen := newJobGen(seed)
	if err := os.RemoveAll(dir); err != nil {
		return rep, err
	}
	var peak atomic.Int64
	stopSampler := sampleGoroutines(&peak)
	srv, err := serve.NewServer(serve.Config{Workers: serveWorkers, DataDir: dir})
	if err != nil {
		return rep, err
	}
	start := time.Now()
	deadline := start.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := [2]int{}
	for c := 0; c < 2; c++ {
		for d := 0; d < clientDepth; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					mu.Lock()
					k := next[c]
					next[c]++
					mu.Unlock()
					rec := runJob(srv, gen, c, k, start)
					mu.Lock()
					rep.Jobs = append(rep.Jobs, rec)
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	rep.WindowS = time.Since(start).Seconds()
	if err := srv.Drain(context.Background()); err != nil {
		return rep, err
	}
	stopSampler()
	rep.GoroutinesPeak = int(peak.Load())
	return rep, nil
}

// probeChild is set-up probe p: it starts a server on a fresh data dir,
// prints a line as soon as the server has admitted its first job, then
// waits for the job, drains, and prints the job's record as JSON.
func probeChild(seed int64, p int, dir string) error {
	gen := newJobGen(seed)
	c, k := p%2, p
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{Workers: serveWorkers, DataDir: dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	j, err := srv.Submit(gen.spec(c, k))
	if err != nil {
		srv.Kill()
		return err
	}
	fmt.Println("admitted")
	<-j.Done()
	rec := record(j, c, gen.draw(c, k), t0, t0, time.Now())
	rec.Probe = true
	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// runServeProbes starts the set-up probe children one after another.
// Each set-up sample runs from launching the process to its "admitted"
// line: process start, NewServer with its journal replay, and the first
// job's admission. Each probe gets a data dir of its own: a server
// restarted over a journal of finished jobs reissues their IDs, and a
// new job then resumes from a finished job's leftover checkpoint and
// fails.
func runServeProbes(self string, seed int64, dir string) (setups []float64, recs []jobRecord, err error) {
	for p := 0; p < setupProbes; p++ {
		cmd := exec.Command(self, "-serve-probe", fmt.Sprint(p), "-seed", fmt.Sprint(seed),
			"-work", filepath.Join(dir, fmt.Sprintf("probe%d", p)))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		rd := bufio.NewReader(out)
		line, rerr := rd.ReadString('\n')
		setup := time.Since(t0).Seconds()
		var rec jobRecord
		if rerr == nil && line != "admitted\n" {
			rerr = fmt.Errorf("unexpected output %q", line)
		}
		if rerr == nil {
			rerr = json.NewDecoder(rd).Decode(&rec)
		}
		if werr := cmd.Wait(); werr != nil || rerr != nil {
			return nil, nil, fmt.Errorf("serve probe %d: wait: %v, output: %v", p, werr, rerr)
		}
		setups = append(setups, setup)
		recs = append(recs, rec)
	}
	return setups, recs, nil
}

// runJob submits client c's k-th job and waits for it.
func runJob(srv *serve.Server, gen *jobGen, c, k int, start time.Time) jobRecord {
	spec := gen.spec(c, k)
	t0 := time.Now()
	j, err := srv.Submit(spec)
	if err != nil {
		return jobRecord{Client: c, Pool: gen.draw(c, k), SubmitS: t0.Sub(start).Seconds(), State: "rejected", Err: err.Error()}
	}
	<-j.Done()
	return record(j, c, gen.draw(c, k), start, t0, time.Now())
}

func record(j *serve.Job, client, pool int, start, submit, done time.Time) jobRecord {
	st := j.Snapshot()
	rec := jobRecord{
		Client:    client,
		Pool:      pool,
		SubmitS:   submit.Sub(start).Seconds(),
		DoneS:     done.Sub(start).Seconds(),
		LatencyS:  done.Sub(submit).Seconds(),
		QueuedS:   st.QueuedSec,
		RunS:      st.RunSec,
		State:     string(st.State),
		SnapBytes: st.Recovery.SnapshotBytes,
		Err:       st.Error,
	}
	cs := j.Spec.Case
	rec.Updates = float64(cs.NX*cs.NY*cs.NZ) * float64(cs.Steps)
	rec.Disk = cs.CheckpointEvery > 0
	if m := j.Result(); m != nil {
		rec.Checksum = serve.FieldChecksum(m)
	}
	return rec
}

// sampleGoroutines records the peak goroutine count every 5 ms until the
// returned stop function is called; stop returns once the sampler exited.
func sampleGoroutines(peak *atomic.Int64) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// runServeChild runs the set-up probes, then this binary as the serve
// child, and returns the report and the serve child's peak RSS in MB.
func runServeChild(seed int64, window time.Duration, dir string) (serveReport, float64, error) {
	var rep serveReport
	self, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	setups, probes, err := runServeProbes(self, seed, dir)
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.Command(self, "-serve-child", "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(window.Seconds()), "-work", filepath.Join(dir, "loop"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, 0, fmt.Errorf("serve child: %w", err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, 0, fmt.Errorf("serve child output: %w", err)
	}
	rep.SetupS = setups
	rep.Jobs = append(probes, rep.Jobs...)
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6
	}
	return rep, rss, nil
}

// referenceChecksum runs a job spec solo, outside the service, through
// the exact solver configuration the service builds for it.
func referenceChecksum(spec serve.JobSpec) (string, error) {
	var m *core.MacroField
	if spec.Decomp == "patch2" {
		opts, err := serve.BuildPatchOptions(spec)
		if err != nil {
			return "", err
		}
		m, _, err = patch.Run(opts, spec.Case.Steps)
		if err != nil {
			return "", err
		}
	} else {
		opts, err := serve.BuildOptions(spec)
		if err != nil {
			return "", err
		}
		m, err = psolve.Run(opts, spec.Case.Steps)
		if err != nil {
			return "", err
		}
	}
	return serve.FieldChecksum(m), nil
}

// checkJobs compares every job's checksum against its solo reference and
// marks mismatches; it returns the number of failed jobs. corrupt, when
// set, perturbs every reference (the self-test of the check).
func checkJobs(gen *jobGen, jobs []jobRecord, corrupt bool) (failed int, err error) {
	refs := map[[2]int]string{}
	for i := range jobs {
		j := &jobs[i]
		if j.State != string(serve.StateDone) {
			if j.Err == "" {
				j.Err = "job ended " + j.State
			}
			failed++
			continue
		}
		pool := j.Pool
		key := [2]int{j.Client, pool}
		ref, ok := refs[key]
		if !ok {
			ref, err = referenceChecksum(gen.pools[j.Client][pool])
			if err != nil {
				return failed, err
			}
			if corrupt {
				ref = perturb(ref)
			}
			refs[key] = ref
		}
		if j.Checksum != ref {
			j.Err = fmt.Sprintf("checksum %s, solo reference %s", j.Checksum, ref)
			failed++
		}
	}
	return failed, nil
}

// perturb flips the last hex digit of a digest.
func perturb(d string) string {
	if d == "" {
		return "0"
	}
	b := []byte(d)
	if b[len(b)-1] == '0' {
		b[len(b)-1] = '1'
	} else {
		b[len(b)-1] = '0'
	}
	return string(b)
}

// serveDir holds the serve-mix data directories (one per probe, one for
// the loop) under the work dir.
func serveDir(work string) string { return filepath.Join(work, "serve-data") }

// serveMetrics turns a checked serve-mix report into the end-to-end
// metrics. Throughput counts the jobs done inside the window; latencies
// cover every job of the closed loop. Set-up probes and jobs that failed
// or failed their check are left out (they count in failed).
func serveMetrics(rep serveReport, window, rssMB float64) (m map[string]metric, stats map[string]any) {
	var lat []float64
	done, updates := 0, 0.0
	for _, j := range rep.Jobs {
		if j.Probe || j.State != string(serve.StateDone) || j.Err != "" {
			continue
		}
		lat = append(lat, j.LatencyS)
		if j.DoneS <= window {
			done++
			updates += j.Updates
		}
	}
	m = map[string]metric{}
	stats = map[string]any{}
	if len(lat) == 0 {
		return m, stats
	}
	pct, tail, beyond := tailLatency(lat)
	m["mlups"] = metric{updates / window / 1e6, "MLUPS"}
	m["setup_s"] = metric{median(rep.SetupS), "s"}
	m["peak_rss_mb"] = metric{rssMB, "MB"}
	m["jobs_per_s"] = metric{float64(done) / window, "1/s"}
	m["job_latency_s_p50"] = metric{median(lat), "s"}
	m["job_latency_s_tail"] = metric{tail, "s"}
	stats["tail_percentile"] = pct
	stats["tail_samples_beyond"] = beyond
	stats["jobs"] = len(lat)
	return m, stats
}
