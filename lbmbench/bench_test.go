package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics fails unless got holds exactly the metrics of want, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics %v, want %d", what, len(got), names, len(want))
	}
	for n, unit := range want {
		m, ok := got[n]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, n)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, n, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, n, m.Value)
		}
	}
}

func TestEndToEndMetricsNamedWithUnits(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	var run cliRun
	for i := 0; i < 30; i++ {
		run.Invocations = append(run.Invocations, invocation{
			SetupS: 0.5, StepS: 0.2 + 0.01*float64(i), LatencyS: 1 + 0.01*float64(i), RSSMB: 900, OK: true,
		})
	}
	run.WindowS = 30
	m, _ := cliMetrics(cliWorkloads["cavity-cli"], run)
	checkMetrics(t, "cavity-cli", m, endToEnd)

	rep := serveReport{SetupS: []float64{0.001, 0.002}, WindowS: 10}
	for i := 0; i < 50; i++ {
		rep.Jobs = append(rep.Jobs, jobRecord{State: "done", LatencyS: 0.1, DoneS: float64(i) / 10, Updates: 1e5})
	}
	m, _ = serveMetrics(rep, 10, 120)
	checkMetrics(t, "serve-mix", m, endToEnd)
}

func TestPerLayerMetricsNamedWithUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	_, perLayer := benchmarkSpec(t)
	gen := newJobGen(1)
	cfg := layerConfigFor("serve-mix", gen)
	m := layerMetrics{}
	if err := probeCore(m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := probeMPI(m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := probePsolveTrace(m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := probePatch(m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := probeCheckpoint(m, cfg, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	serveLayerMetrics(m, serveReport{Jobs: []jobRecord{{State: "done", LatencyS: 0.2, QueuedS: 0.05, RunS: 0.1}}})
	if err := tracedPsolveOverhead(m, cfg); err != nil {
		t.Fatal(err)
	}
	// run() adds the rows that need the host probe.
	m.set("core.roofline_pct", 1, "%")
	m.set("host.triad_gbps", 1, "GB/s")
	m.set("host.nproc", 1, "count")
	m.set("host.llc_mb", 1, "MB")
	checkMetrics(t, "per-layer", map[string]metric(m), perLayer)
}

func TestOutputCheckRejectsPerturbedDigest(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "out")
	for _, s := range []string{"_speed_z.ppm", "_speed_y.ppm"} {
		if err := os.WriteFile(prefix+s, []byte("P6\n2 1\n255\n"+s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := sliceDigest(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkDigest(prefix, d); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if _, err := checkDigest(prefix, perturb(d)); err == nil {
		t.Fatal("perturbed CLI digest accepted")
	}

	gen := newJobGen(3)
	ref, err := referenceChecksum(gen.pools[1][0])
	if err != nil {
		t.Fatal(err)
	}
	jobs := []jobRecord{{Client: 1, Pool: 0, State: "done", Checksum: ref}}
	if failed, err := checkJobs(gen, jobs, false); err != nil || failed != 0 {
		t.Fatalf("matching job checksum: failed=%d err=%v", failed, err)
	}
	jobs[0].Err = ""
	if failed, err := checkJobs(gen, jobs, true); err != nil || failed != 1 {
		t.Fatalf("perturbed job reference: failed=%d err=%v, want 1 failure", failed, err)
	}
}

func TestGeneratorDeterministicUnderSeed(t *testing.T) {
	a, b := newJobGen(42), newJobGen(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different jobs")
	}
	if reflect.DeepEqual(a, newJobGen(43)) {
		t.Fatal("different seeds, same jobs")
	}
	for c := 0; c < 2; c++ {
		for k := 0; k < 100; k++ {
			sp := a.spec(c, k)
			if _, err := json.Marshal(sp); err != nil || sp.Case.Steps < 1 {
				t.Fatalf("client %d job %d: %+v", c, k, sp)
			}
		}
	}
}

func TestFastQuartileResistsSlowPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 200)
	for i := range base {
		base[i] = 0.2 * (1 + 0.02*rng.NormFloat64())
	}
	slowed := append([]float64(nil), base...)
	for i := 60; i < 160; i++ { // half the intervals run 4× slower
		slowed[i] *= 4
	}
	// Half the intervals slowed 4× may move the fast quartile no further
	// than (about) the median of the intervals left unslowed.
	unslowed := append(append([]float64(nil), base[:60]...), base[160:]...)
	b, s := fastQuartile(base), fastQuartile(slowed)
	if hi := quantile(unslowed, 0.55); s < b || s > hi {
		t.Fatalf("fast quartile %.4f under a slow phase, want within [%.4f, %.4f]", s, b, hi)
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if mean(slowed) < 2*mean(base) {
		t.Fatal("the injected slow phase did not slow the mean; the test injects nothing")
	}
}

func TestTailLatency(t *testing.T) {
	lat := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{{1000, 99, 10}, {200, 95, 10}, {100, 90, 10}, {40, 75, 10}, {39, 100, 0}} {
		pct, _, beyond := tailLatency(lat(c.n))
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: p%v with %d beyond, want p%v with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestServeChildClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mix loop")
	}
	rep, err := serveLoop(5, 1500*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) == 0 || rep.GoroutinesPeak == 0 {
		t.Fatalf("%d jobs, %d goroutines at peak", len(rep.Jobs), rep.GoroutinesPeak)
	}
	if failed, err := checkJobs(newJobGen(5), rep.Jobs, false); err != nil || failed != 0 {
		t.Fatalf("failed=%d err=%v", failed, err)
	}
}
