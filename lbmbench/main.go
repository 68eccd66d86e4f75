// Command lbmbench is the repository's end-to-end and per-layer
// benchmark. It runs three workloads through entry points a user can
// reach — the sunwaylb CLI and the serve job service — checks their
// outputs, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash lbmbench/run.sh --workload cavity-cli --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics. See README.md for the workloads, the
// metrics and the interval statistic.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sunwaylb/internal/psolve"
	"sunwaylb/internal/trace"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// references maps each CLI command line to the digest of the slices it
// writes, recorded with -record.
//
//go:embed references.json
var referencesJSON []byte

var workloads = []string{"cavity-cli", "channel-2x1", "serve-mix"}

func main() {
	var (
		workload   = flag.String("workload", "", "cavity-cli | channel-2x1 | serve-mix")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Float64("seconds", 20, "measurement window in seconds")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin        = flag.String("bin", ".bench_build/bin/sunwaylb", "sunwaylb binary")
		work       = flag.String("work", ".bench_build/work", "scratch directory")
		record     = flag.Bool("record", false, "print the reference digests of the CLI workloads and exit")
		perturbRef = flag.Bool("perturb-reference", false, "perturb every output reference (checks that the output check fails)")
		serveChld  = flag.Bool("serve-child", false, "internal: run the serve-mix loop and print its report")
		serveProbe = flag.Int("serve-probe", -1, "internal: run serve-mix set-up probe n and print its job")
		resultsDir = flag.String("results", ".bench_build/results", "directory for the full result documents")
	)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case *serveChld:
		err = serveChild(*seed, window, *work)
	case *serveProbe >= 0:
		err = probeChild(*seed, *serveProbe, *work)
	case *record:
		err = recordReferences(*bin, *work)
	default:
		err = benchmark(*workload, *seed, window, *traced, *bin, *work, *resultsDir, *perturbRef)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmbench:", err)
		os.Exit(1)
	}
}

// errIncorrect fails a run whose outputs did not pass their checks,
// after its result has been printed.
var errIncorrect = errors.New("output check failed")

// benchmark runs one workload, stores its result document, and prints
// the detail line and then the result line.
func benchmark(workload string, seed int64, window time.Duration, traced int, bin, work, resultsDir string, perturbRef bool) error {
	res, doc, err := run(workload, seed, window, traced == 1, bin, work, perturbRef)
	if err != nil {
		return err
	}
	if err := writeDocument(resultsDir, workload, seed, traced, doc); err != nil {
		return err
	}
	detail, err := json.Marshal(map[string]any{"detail": doc})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// document is the full record of one run: the result, the host
// fingerprint and the raw samples behind every metric.
type document struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Host     fingerprint    `json:"host"`
	Result   result         `json:"result"`
	Stats    map[string]any `json:"stats"`
	CLI      *cliRun        `json:"cli,omitempty"`
	Serve    *serveReport   `json:"serve,omitempty"`
	Errors   []string       `json:"errors,omitempty"`
}

func run(workload string, seed int64, window time.Duration, traced bool, bin, work string, perturbRef bool) (result, *document, error) {
	doc := &document{Workload: workload, Seed: seed, Trace: traced, Stats: map[string]any{}}
	res := result{Metrics: map[string]metric{}}
	if !slices.Contains(workloads, workload) {
		return res, nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if _, err := os.Stat(bin); err != nil {
		return res, nil, fmt.Errorf("sunwaylb binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return res, nil, err
	}
	gen := newJobGen(seed)

	var err error
	if w, ok := cliWorkloads[workload]; ok {
		err = runCLIWorkload(doc, &res, w, gen, window, traced, bin, work, perturbRef)
	} else {
		err = runServeWorkload(doc, &res, gen, seed, window, traced, work, perturbRef)
	}
	if err != nil {
		return res, nil, err
	}
	// The host probe runs last: a child started after it would report
	// the benchmark's own high-water mark, raised by the triad arrays, in
	// its ru_maxrss.
	doc.Host = probeHost()
	if traced {
		res.Metrics["core.roofline_pct"] = metric{100 * res.Metrics["core.gbps"].Value / doc.Host.TriadGBps, "%"}
		res.Metrics["host.triad_gbps"] = metric{doc.Host.TriadGBps, "GB/s"}
		res.Metrics["host.nproc"] = metric{float64(doc.Host.NProc), "count"}
		res.Metrics["host.llc_mb"] = metric{doc.Host.LLCMB, "MB"}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	frac := 1.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	doc.Stats["failed_frac"] = frac
	doc.Result = res
	return res, doc, nil
}

func runCLIWorkload(doc *document, res *result, w cliWorkload, gen *jobGen, window time.Duration, traced bool, bin, work string, perturbRef bool) error {
	refs := map[string]string{}
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return fmt.Errorf("references.json: %w", err)
	}
	want, ok := refs[w.key()]
	if !ok {
		return fmt.Errorf("no reference digest for %q; run with -record", w.key())
	}
	if perturbRef {
		want = perturb(want)
	}
	run, err := runCLI(bin, filepath.Join(work, "cli"), w, want, window, traced)
	if err != nil {
		return err
	}
	doc.CLI = &run
	for _, inv := range run.Invocations {
		res.Attempted++
		if !inv.OK {
			res.Failed++
			doc.Errors = append(doc.Errors, inv.Err)
		}
	}
	if !traced {
		m, stats := cliMetrics(w, run)
		for k, v := range m {
			res.Metrics[k] = v
		}
		for k, v := range stats {
			doc.Stats[k] = v
		}
		return nil
	}
	plain, tracedRate := cliRate(w, run, false), cliRate(w, run, true)
	res.Metrics["trace.overhead_pct"] = metric{100 * (plain - tracedRate) / plain, "%"}
	lm := layerMetrics(res.Metrics)
	cfg := layerConfigFor(doc.Workload, gen)
	if err := probeLayers(lm, cfg, doc, gen, work, nil); err != nil {
		return err
	}
	if doc.Workload == "channel-2x1" {
		// The CLI's own trace, read through trace.Analyze, replaces the
		// in-process psolve trace for the workload that runs psolve.
		psolvePhaseMetrics(lm, run.phaseTotals)
	}
	return nil
}

func runServeWorkload(doc *document, res *result, gen *jobGen, seed int64, window time.Duration, traced bool, work string, perturbRef bool) error {
	rep, rss, err := runServeChild(seed, window, serveDir(work))
	if err != nil {
		return err
	}
	failed, err := checkJobs(gen, rep.Jobs, perturbRef)
	if err != nil {
		return err
	}
	doc.Serve = &rep
	res.Attempted, res.Failed = len(rep.Jobs), failed
	for _, j := range rep.Jobs {
		if j.Err != "" {
			doc.Errors = append(doc.Errors, j.Err)
		}
	}
	if !traced {
		m, stats := serveMetrics(rep, window.Seconds(), rss)
		for k, v := range m {
			res.Metrics[k] = v
		}
		for k, v := range stats {
			doc.Stats[k] = v
		}
		return nil
	}
	lm := layerMetrics(res.Metrics)
	cfg := layerConfigFor(doc.Workload, gen)
	if err := tracedPsolveOverhead(lm, cfg); err != nil {
		return err
	}
	return probeLayers(lm, cfg, doc, gen, work, &rep)
}

// probeLayers runs every per-layer probe. rep is the workload's own
// serve-mix report; without one, a short serve-mix session supplies the
// serve and resil rows.
func probeLayers(m layerMetrics, cfg layerConfig, doc *document, gen *jobGen, work string, rep *serveReport) error {
	if rep == nil {
		r, _, err := runServeChild(doc.Seed, 2*time.Second, serveDir(work))
		if err != nil {
			return err
		}
		failed, err := checkJobs(gen, r.Jobs, false)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("serve probe: %d of %d jobs failed", failed, len(r.Jobs))
		}
		rep = &r
	}
	serveLayerMetrics(m, *rep)
	if err := probeCore(m, cfg); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeMPI(m, cfg); err != nil {
		return fmt.Errorf("mpi probe: %w", err)
	}
	if err := probePsolveTrace(m, cfg); err != nil {
		return fmt.Errorf("psolve probe: %w", err)
	}
	if err := probePatch(m, cfg); err != nil {
		return fmt.Errorf("patch probe: %w", err)
	}
	if err := probeCheckpoint(m, cfg, work); err != nil {
		return fmt.Errorf("swio probe: %w", err)
	}
	return nil
}

// tracedPsolveOverhead compares the fast-quartile step rate of the
// psolve configuration run with and without a tracer, alternating the
// two so both see the same host conditions.
func tracedPsolveOverhead(m layerMetrics, cfg layerConfig) error {
	var plain, traced []float64
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; i < 10 || time.Now().Before(deadline); i++ {
		opts := cfg.psolve
		if i%2 == 1 {
			opts.Trace = trace.New(trace.Options{})
		}
		t0 := time.Now()
		if _, err := psolve.Run(opts, cfg.psolveSteps); err != nil {
			return err
		}
		dt := time.Since(t0).Seconds()
		if i%2 == 1 {
			traced = append(traced, dt)
		} else {
			plain = append(plain, dt)
		}
	}
	p, t := fastQuartile(plain), fastQuartile(traced)
	m.set("trace.overhead_pct", 100*(t-p)/t, "%")
	return nil
}

// writeDocument stores the full result document of a run.
func writeDocument(dir, workload string, seed int64, traced int, doc *document) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, traced)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// recordReferences runs each CLI workload once and prints the reference
// table for references.json.
func recordReferences(bin, work string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	refs := map[string]string{}
	for _, w := range cliWorkloads {
		inv := invoke(bin, w.args, filepath.Join(work, "record"), "", "")
		if inv.Digest == "" {
			return errors.New(inv.Err)
		}
		refs[w.key()] = inv.Digest
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
