package psolve

import (
	"testing"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/mpi"
)

// TestStepSteadyStateAllocatesNothing steps a 2×1 channel world (inlet,
// outlet, periodic y and z — the shape of the benchmark's psolve run)
// under testing.AllocsPerRun, after one warm-up step: halo tables,
// exchange buffers and transport channels are set up by then, and every
// later Solver.Step — both ranks, both storage parities, sequential and
// on-the-fly — must allocate nothing.
func TestStepSteadyStateAllocatesNothing(t *testing.T) {
	for _, onTheFly := range []bool{false, true} {
		opts := Options{
			GNX: 12, GNY: 6, GNZ: 6, PX: 2, PY: 1, Tau: 0.7,
			FaceBC: map[core.Face]boundary.Condition{
				core.FaceXMin: &boundary.VelocityInlet{Face: core.FaceXMin, U: [3]float64{0.05, 0, 0}},
				core.FaceXMax: &boundary.PressureOutlet{Face: core.FaceXMax, Rho: 1},
			},
			PeriodicY: true, PeriodicZ: true,
			OnTheFly: onTheFly,
		}
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		start := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		done := make(chan struct{}, 2)
		errc := make(chan error, 1)
		go func() {
			errc <- mpi.RunWorld(w, func(c *mpi.Comm) error {
				s, err := New(c, opts)
				if err != nil {
					done <- struct{}{}
					return err
				}
				s.Step() // warm-up: flags, halo tables, clean spans
				done <- struct{}{}
				for range start[c.Rank()] {
					s.Step()
					done <- struct{}{}
				}
				return nil
			})
		}()
		<-done
		<-done
		allocs := testing.AllocsPerRun(40, func() {
			start[0] <- struct{}{}
			start[1] <- struct{}{}
			<-done
			<-done
		})
		close(start[0])
		close(start[1])
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("on-the-fly=%v: steady-state Step allocates %.1f times per step (both ranks), want 0", onTheFly, allocs)
		}
	}
}
