package core

import (
	"runtime"
	"sync"
)

// StepFusedParallel advances one time step with the fused kernel, splitting
// the y rows across the given number of worker goroutines. workers ≤ 0
// selects GOMAXPROCS. The pull scheme writes only into the destination
// buffer and reads only the source buffer (and the AA kernels' write sets
// are read only by the owning cell), so rows are embarrassingly parallel;
// results are bit-identical to StepFused. This spawns goroutines per step;
// long-running multi-core loops should prefer the persistent Pool.
func (l *Lattice) StepFusedParallel(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > l.NY {
		workers = l.NY
	}
	if workers <= 1 {
		l.StepFused()
		return
	}
	if l.aa {
		l.syncRowCache()
	}
	var wg sync.WaitGroup
	chunk := (l.NY + workers - 1) / workers
	for w := 0; w < workers; w++ {
		y0 := w * chunk
		y1 := y0 + chunk
		if y1 > l.NY {
			y1 = l.NY
		}
		if y0 >= y1 {
			break
		}
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			if l.aa {
				l.stepAAYRange(a, b)
			} else {
				l.stepRange(a, b)
			}
		}(y0, y1)
	}
	wg.Wait()
	if !l.aa {
		l.src = 1 - l.src
	}
	l.step++
}
