package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// memEvery is the memory sampling period during the timed passes.
const memEvery = 5 * time.Millisecond

// memSampler records the process's resident set and the Go heap's live
// bytes every memEvery until finish. Neither is gated: both depend on
// the host as well as on the program. The resident set on top of the
// live heap depends on how far the heap overshoots its goal before a
// concurrent collection catches up and on when the scavenger hands freed
// pages back: over three sets of ten seeds the median resident set of
// window-day sat near 79 MB in two and near 93 MB in the third, with the
// same code and seeds. The live heap between collections depends on
// which op a collection happens to end in: plan-sweep's median sat at
// 12.5 MB in some runs and 13.8 MB in others.
type memSampler struct {
	stop, done chan struct{}
	// owned by the sampling goroutine until done closes
	rssMB, liveMB []float64
}

func sampleMemory() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if mb, err := residentMB(); err == nil {
					s.rssMB = append(s.rssMB, mb)
				}
				metrics.Read(live)
				if live[0].Value.Kind() == metrics.KindUint64 {
					s.liveMB = append(s.liveMB, float64(live[0].Value.Uint64())/(1<<20))
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the resident-set and live-heap
// samples in time order.
func (s *memSampler) finish() (rssMB, liveMB []float64) {
	close(s.stop)
	<-s.done
	return s.rssMB, s.liveMB
}

// residentMB reads the process's current resident set in MB.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: malformed statm %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// retainedHeapMB collects garbage and returns the Go heap's live bytes:
// the state the system keeps between requests (engines, caches,
// orchestrator, journals). Unlike the samples, it does not depend on
// which op a collection ends in.
func retainedHeapMB() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(live[0].Value.Uint64()) / (1 << 20)
}
