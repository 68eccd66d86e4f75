package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sunwaylb/internal/trace"
)

// cliWorkload is one sunwaylb command line run back to back for the
// measurement window. Each invocation is one job: it sets up, steps a
// fixed number of steps and writes its PPM slices, whose digest is the
// output check.
type cliWorkload struct {
	args  []string // sunwaylb arguments, without -out and -trace
	steps int      // steps per invocation
	cells float64  // lattice updates per step
}

var cliWorkloads = map[string]cliWorkload{
	// 144³ D3Q19 doubles are 454 MB per distribution array, more than 4×
	// the 105 MiB LLC of the reference host. -report 1e9 keeps progress
	// lines (and the serial max|u| scan behind them) out of the timed
	// stepping interval.
	"cavity-cli": {
		args:  []string{"-preset", "cavity", "-nx", "144", "-ny", "144", "-nz", "144", "-steps", "1", "-report", "1e9"},
		steps: 1,
		cells: 144 * 144 * 144,
	},
	// 14³ per rank: both A–B arrays with halos are 1.25 MB, inside the
	// 2 MB per-core L2. At 24³ (5.3 MB) each rank sat in the LLC that
	// other tenants share and moved ±28% between invocations.
	"channel-2x1": {
		args:  []string{"-preset", "channel", "-decomp", "2x1", "-nx", "28", "-ny", "14", "-nz", "14", "-steps", "600"},
		steps: 600,
		cells: 28 * 14 * 14,
	},
}

// key names the command line in the reference table.
func (w cliWorkload) key() string { return strings.Join(w.args, " ") }

// invocation is what the benchmark observes of one sunwaylb process,
// timed from outside by the arrival of its output lines.
type invocation struct {
	// SetupS runs from launch to the first output line, which the CLI
	// prints once the case is built (local runs: lattice allocated and
	// initialised; distributed runs: before the ranks start).
	SetupS float64 `json:"setup_s"`
	// StepS runs from the first output line to the "completed" line: the
	// stepping phase (distributed runs include rank set-up and gather).
	StepS float64 `json:"step_s"`
	// LatencyS runs from launch to process exit.
	LatencyS float64 `json:"latency_s"`
	RSSMB    float64 `json:"rss_mb"`
	Digest   string  `json:"digest"`
	Traced   bool    `json:"traced,omitempty"`
	OK       bool    `json:"ok"`
	Err      string  `json:"err,omitempty"`
}

// invoke runs sunwaylb once with the given arguments plus -out prefix
// (and -trace file when tracePath is set), and checks the digest of the
// written slices against want.
func invoke(bin string, args []string, prefix, tracePath, want string) invocation {
	var inv invocation
	for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
		os.Remove(prefix + suffix)
	}
	full := append(append([]string(nil), args...), "-out", prefix)
	if tracePath != "" {
		full = append(full, "-trace", tracePath)
		inv.Traced = true
	}
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		inv.Err = err.Error()
		return inv
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		inv.Err = err.Error()
		return inv
	}
	var tHeader, tDone time.Time
	rd := bufio.NewReader(out)
	for {
		line, rerr := rd.ReadString('\n')
		now := time.Now()
		if line != "" {
			switch {
			case tHeader.IsZero():
				tHeader = now
			case tDone.IsZero() && strings.HasPrefix(line, "completed"):
				tDone = now
			}
		}
		if rerr != nil {
			break
		}
	}
	werr := cmd.Wait()
	inv.LatencyS = time.Since(t0).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.RSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	switch {
	case werr != nil:
		inv.Err = fmt.Sprintf("sunwaylb: %v", werr)
		return inv
	case tHeader.IsZero() || tDone.IsZero():
		inv.Err = "sunwaylb printed no header or no completed line"
		return inv
	}
	inv.SetupS = tHeader.Sub(t0).Seconds()
	inv.StepS = tDone.Sub(tHeader).Seconds()
	inv.Digest, err = checkDigest(prefix, want)
	if err != nil {
		inv.Err = err.Error()
		return inv
	}
	inv.OK = true
	return inv
}

// checkDigest hashes the slices written under prefix and compares the
// digest with the reference; it returns the digest either way.
func checkDigest(prefix, want string) (string, error) {
	d, err := sliceDigest(prefix)
	if err == nil && d != want {
		err = fmt.Errorf("output digest %s, reference %s", d, want)
	}
	return d, err
}

// sliceDigest hashes the two PPM slices sunwaylb -out writes.
func sliceDigest(prefix string) (string, error) {
	h := sha256.New()
	for _, suffix := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
		f, err := os.Open(prefix + suffix)
		if err != nil {
			return "", fmt.Errorf("reading output: %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("reading output: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cliRun is one measurement window of a CLI workload; the phase totals
// cover its traced invocations.
type cliRun struct {
	Invocations []invocation `json:"invocations"`
	WindowS     float64      `json:"window_s"`
	phaseTotals
}

// phaseTotals sums trace.Analyze reports: wall-clock span seconds per
// phase name, the number of step spans (ranks × steps) and each report's
// wall-clock imbalance.
type phaseTotals struct {
	Phases    map[string]float64 `json:"phases,omitempty"`
	StepSpans int                `json:"step_spans,omitempty"`
	Imbalance []float64          `json:"imbalance,omitempty"`
}

func (pt *phaseTotals) add(rep *trace.Report) {
	if pt.Phases == nil {
		pt.Phases = map[string]float64{}
	}
	for _, p := range rep.Phases {
		if p.Clock != trace.Wall {
			continue
		}
		pt.Phases[p.Name] += p.Total
		if p.Track == trace.TrackStep && p.Name == "step" {
			pt.StepSpans += p.Count
		}
	}
	if im := rep.Imbalance[trace.Wall]; im > 0 {
		pt.Imbalance = append(pt.Imbalance, im)
	}
}

// runCLI launches the workload back to back until the window has passed
// (the last invocation always completes). With traced set, every second
// invocation runs with -trace, so traced and untraced invocations share
// the same host conditions.
func runCLI(bin, work string, w cliWorkload, want string, window time.Duration, traced bool) (cliRun, error) {
	var run cliRun
	if err := os.MkdirAll(work, 0o755); err != nil {
		return run, err
	}
	prefix := filepath.Join(work, "out")
	tracePath := filepath.Join(work, "trace.json")
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		tp := ""
		if traced && i%2 == 1 {
			tp = tracePath
		}
		inv := invoke(bin, w.args, prefix, tp, want)
		if tp != "" && inv.OK {
			if err := addTracePhases(&run, tp); err != nil {
				inv.OK, inv.Err = false, err.Error()
			}
		}
		run.Invocations = append(run.Invocations, inv)
	}
	run.WindowS = time.Since(start).Seconds()
	return run, nil
}

// addTracePhases reads a trace written by sunwaylb -trace and adds its
// analysis to the run's phase totals.
func addTracePhases(run *cliRun, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	defer f.Close()
	events, err := trace.ReadChrome(f)
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	run.add(trace.Analyze(events))
	return nil
}

// cliRate is the workload's MLUPS at the fast quartile of the stepping
// intervals of the successful invocations that ran with (or without)
// -trace.
func cliRate(w cliWorkload, run cliRun, traced bool) float64 {
	var perStep []float64
	for _, inv := range run.Invocations {
		if inv.OK && inv.Traced == traced {
			perStep = append(perStep, inv.StepS/float64(w.steps))
		}
	}
	if len(perStep) == 0 {
		return 0
	}
	return w.cells / fastQuartile(perStep) / 1e6
}

// cliMetrics turns an untraced run into the end-to-end metrics. Failed
// invocations are left out of the timings (they count in failed).
func cliMetrics(w cliWorkload, run cliRun) (m map[string]metric, stats map[string]any) {
	var setup, lat []float64
	rss := 0.0
	for _, inv := range run.Invocations {
		if !inv.OK {
			continue
		}
		rss = max(rss, inv.RSSMB)
		setup = append(setup, inv.SetupS)
		lat = append(lat, inv.LatencyS)
	}
	m = map[string]metric{}
	stats = map[string]any{}
	if len(lat) == 0 {
		return m, stats
	}
	pct, tail, beyond := tailLatency(lat)
	m["mlups"] = metric{cliRate(w, run, false), "MLUPS"}
	m["setup_s"] = metric{median(setup), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["jobs_per_s"] = metric{float64(len(lat)) / run.WindowS, "1/s"}
	m["job_latency_s_p50"] = metric{median(lat), "s"}
	m["job_latency_s_tail"] = metric{tail, "s"}
	stats["tail_percentile"] = pct
	stats["tail_samples_beyond"] = beyond
	stats["jobs"] = len(lat)
	return m, stats
}
