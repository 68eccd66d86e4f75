package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sunwaylb")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}
	return bin
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	cp := filepath.Join(dir, "state.cpk")

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Local run with checkpoint.
	out := run("-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12",
		"-steps", "20", "-checkpoint", cp)
	if !strings.Contains(out, "completed") {
		t.Errorf("no completion line:\n%s", out)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}

	// Restore and continue.
	out = run("-preset", "cavity", "-nx", "12", "-ny", "12", "-nz", "12",
		"-steps", "30", "-restore", cp)
	if !strings.Contains(out, "restored") {
		t.Errorf("no restore line:\n%s", out)
	}

	// Distributed run with images.
	prefix := filepath.Join(dir, "chan")
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "10", "-decomp", "2x1", "-out", prefix)
	if !strings.Contains(out, "aggregate") {
		t.Errorf("no distributed summary:\n%s", out)
	}
	if _, err := os.Stat(prefix + "_speed_z.ppm"); err != nil {
		t.Errorf("missing image: %v", err)
	}

	// Supervised chaos run: a fault plan kills rank 1 mid-run; the
	// supervisor restores from the periodic checkpoint and finishes.
	chaosCp := filepath.Join(dir, "chaos.cpk")
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "20", "-decomp", "2x1",
		"-checkpoint", chaosCp, "-checkpoint-every", "5", "-max-restarts", "2",
		"-fault-plan", "seed=7;crash@rank=1,step=12")
	if !strings.Contains(out, "completed") {
		t.Errorf("chaos run did not complete:\n%s", out)
	}
	if !strings.Contains(out, "restarts=1") {
		t.Errorf("chaos run reported no recovery:\n%s", out)
	}
	if !strings.Contains(out, "crashes=1") {
		t.Errorf("chaos run reported no injected crash:\n%s", out)
	}
	if _, err := os.Stat(chaosCp); err != nil {
		t.Errorf("supervised checkpoint missing: %v", err)
	}

	// Distributed restore resumes from the supervised checkpoint.
	out = run("-preset", "channel", "-nx", "24", "-ny", "8", "-nz", "8",
		"-steps", "25", "-decomp", "2x1", "-restore", chaosCp)
	if !strings.Contains(out, "restored") {
		t.Errorf("distributed restore did not resume:\n%s", out)
	}

	// Patch decomposition over a heterogeneous roster with rebalancing.
	out = run("-preset", "cavity", "-nx", "16", "-ny", "16", "-nz", "12",
		"-steps", "10", "-decomp", "patch", "-patch-tiles", "2x2x1",
		"-patch-workers", "core,core*5,sunway", "-rebalance-every", "3")
	if !strings.Contains(out, "patches: 4 over 3 workers") {
		t.Errorf("no patch summary:\n%s", out)
	}

	// Supervised patch run: kill a worker mid-run; its patches migrate to
	// the survivors from the in-memory snapshot wave.
	out = run("-preset", "cavity", "-nx", "16", "-ny", "16", "-nz", "12",
		"-steps", "12", "-decomp", "patch", "-patch-tiles", "2x2x1",
		"-patch-workers", "core,core,core", "-snapshot-every", "2",
		"-max-restarts", "2", "-fault-plan", "seed=3;crash@rank=1,step=6")
	if !strings.Contains(out, "completed") {
		t.Errorf("patch chaos run did not complete:\n%s", out)
	}
	if !strings.Contains(out, "crashes=1") {
		t.Errorf("patch chaos run reported no injected crash:\n%s", out)
	}

	// Bad flags fail cleanly.
	if _, err := exec.Command(bin, "-preset", "nope").CombinedOutput(); err == nil {
		t.Error("unknown preset must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "9z9").CombinedOutput(); err == nil {
		t.Error("malformed -decomp must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity",
		"-fault-plan", "crash@rank=0,step=1").CombinedOutput(); err == nil {
		t.Error("-fault-plan without -decomp must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "2x1",
		"-fault-plan", "bogus@x=1").CombinedOutput(); err == nil {
		t.Error("malformed -fault-plan must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "patch",
		"-patch-workers", "quantum").CombinedOutput(); err == nil {
		t.Error("unknown -patch-workers backend must exit non-zero")
	}
	if _, err := exec.Command(bin, "-preset", "cavity", "-decomp", "patch",
		"-patch-tiles", "2x2").CombinedOutput(); err == nil {
		t.Error("malformed -patch-tiles must exit non-zero")
	}
}

// TestCLIRestoreResumesBitIdentical checks local runs, which step the
// in-place AA kernel, checkpoint and resume at either storage parity: a
// run stopped after an odd (then an even) number of steps and resumed
// with -restore must end in a final checkpoint byte-identical to an
// uninterrupted run's.
func TestCLIRestoreResumesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	run := func(args ...string) {
		t.Helper()
		base := []string{"-preset", "channel", "-nx", "12", "-ny", "8", "-nz", "8"}
		if out, err := exec.Command(bin, append(base, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
	}
	full := filepath.Join(dir, "full.cpk")
	run("-steps", "12", "-checkpoint", full)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []string{"7", "6"} {
		half := filepath.Join(dir, "half"+stop+".cpk")
		resumed := filepath.Join(dir, "resumed"+stop+".cpk")
		run("-steps", stop, "-checkpoint", half)
		run("-steps", "12", "-restore", half, "-checkpoint", resumed)
		got, err := os.ReadFile(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stopped at step %s and resumed: final checkpoint differs from the uninterrupted run", stop)
		}
	}
}
