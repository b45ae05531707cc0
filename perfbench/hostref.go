package main

import (
	"crypto/sha256"
	"os"
	"sort"
	"sync"
	"time"
)

// Host-speed reference. The shared hosts this benchmark was calibrated on
// drift in speed by up to 2× over a few minutes (neighbouring load), far
// more than any program change it is meant to catch, and a median inside
// one run cannot remove drift that slow. So every run also times a fixed
// kernel owned by the benchmark, in fresh child processes right next to
// its measurements, and reports its CPU-bound metrics at the calibration
// host's speed: times scale by refNominalS/ref, rates by ref/refNominalS.
// The kernel shares no code with the program, so a program change moves
// the scaled metrics exactly as it moves the raw ones.

// refNominalS is the kernel's median wall time on the calibration host.
const refNominalS = 0.33

type refNode struct {
	next *refNode
	val  [6]uint64
}

var refSink [32]byte

// refKernel runs a fixed allocation-, sort- and hash-heavy mix on two
// goroutines, like the workloads' mix of model building, GC and
// simulation on nproc=2, and returns its wall time.
func refKernel() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g + 1)
			var keep []*refNode
			for rep := 0; rep < 20; rep++ {
				m := map[uint64][]byte{}
				xs := make([]uint64, 40000)
				var head *refNode
				for i := range xs {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					xs[i] = x
					head = &refNode{next: head, val: [6]uint64{x}}
					if i%4 == 0 {
						m[x] = make([]byte, 96)
					}
				}
				if rep%4 == 0 {
					keep = append(keep, head)
				}
				sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
				buf := make([]byte, 1<<17)
				for i := range buf {
					buf[i] = byte(xs[i%len(xs)])
				}
				refSink = sha256.Sum256(buf)
			}
			_ = keep
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// hostRef runs the kernel n times, each in a fresh child process, and
// returns the median wall time in seconds.
func hostRef(n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < n; i++ {
		res, _, err := spawnChild(exe, "ref", 0, false)
		if err != nil {
			return 0, err
		}
		xs = append(xs, res.WallS)
	}
	return median(xs), nil
}
