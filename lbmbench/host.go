package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host a result was measured on. Results from
// hosts whose fingerprints differ are not comparable.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LLCMB      float64 `json:"llc_mb"`
	AVX512     string  `json:"avx512"`
	GoVersion  string  `json:"go_version"`
	TriadGBps  float64 `json:"triad_gbps"`
	TriadMB    float64 `json:"triad_array_mb"`
}

// probeHost fills the fingerprint and measures the STREAM triad.
func probeHost() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCMB:      llcMB(),
		AVX512:     "absent",
	}
	model, flags := cpuInfo()
	fp.CPUModel = model
	if strings.Contains(" "+flags+" ", " avx512f ") {
		fp.AVX512 = "active"
		if os.Getenv("LBM_NOAVX512") != "" {
			fp.AVX512 = "disabled by LBM_NOAVX512"
		}
	}
	fp.TriadGBps, fp.TriadMB = triad(fp.LLCMB, fp.GOMAXPROCS)
	return fp
}

// cpuInfo returns the model name and flag list of the first CPU in
// /proc/cpuinfo (empty strings where unavailable).
func cpuInfo() (model, flags string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "", ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "" {
				flags = strings.TrimSpace(v)
			}
		}
		if model != "" && flags != "" {
			break
		}
	}
	return model, flags
}

// llcMB reads the size of the highest-level cache of CPU 0 from sysfs,
// in MiB (0 when sysfs does not say).
func llcMB() float64 {
	best, bestLevel := 0.0, 0
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := 1.0 / 1024
		switch {
		case strings.HasSuffix(s, "K"):
			s = strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1
		}
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	return best
}

// triad measures the STREAM triad a = b + s·c with one goroutine per
// GOMAXPROCS slot, the parallelism the stepping kernels use. Each array
// is at least four times the last-level cache (64 MiB when the cache size
// is unknown). It reports the best of several passes in GB/s, counting
// 24 bytes per element as STREAM does, and the size of one array in MB.
func triad(llc float64, workers int) (gbps, arrayMB float64) {
	if llc <= 0 {
		llc = 16
	}
	n := int(4*llc*(1<<20)/8) + 1
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallel(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := 0.0
	for pass := 0; pass < 6; pass++ {
		t0 := time.Now()
		parallel(workers, n, func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		if r := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; r > best {
			best = r
		}
	}
	if a[n-1] != 7 {
		best = 0 // a triad that computed the wrong value measured nothing
	}
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
	return best, 8 * float64(n) / 1e6
}

// parallel splits [0,n) into one contiguous band per worker and waits for
// all of them.
func parallel(workers, n int, fn func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
