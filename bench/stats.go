package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs, interpolating between the two middle
// values of an even count. It sorts a copy; xs may be in any order.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// heapAllocs reads the cumulative bytes allocated on the heap by this
// process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// filesystemOf names the filesystem holding dir, from its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// The host the baseline was recorded on changes speed by a quarter and
// more over minutes, for every workload at once. So every timing is taken
// between two samples of a fixed reference loop, run in the same process,
// and rescaled to the speed at which that loop takes refNominal seconds:
// about its median on that host. Raw wall-clock figures are printed
// beside the metrics as a comment. An unscaled workload (workload.unscaled)
// skips all of this.
const (
	refNominal = 0.045
	// refLoops is how many reference loops make one sample; the sample is
	// their median.
	refLoops = 5
)

// referenceLoop runs a fixed piece of integer, sorting and hashing work
// on libraryWorkers goroutines. It calls nothing of this repository, so
// no change to the program can move it.
func referenceLoop() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < libraryWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			xs := make([]int32, 200_000)
			for i := range xs {
				xs[i] = rng.Int31()
			}
			sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
			counts := make(map[int32]int, 1<<14)
			for _, x := range xs {
				counts[x&(1<<14-1)]++
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// refSample is the median of refLoops reference loops, in seconds.
func refSample() float64 {
	xs := make([]float64, refLoops)
	for i := range xs {
		xs[i] = referenceLoop().Seconds()
	}
	return median(xs)
}

// refClock rescales timings to reference speed. Each timed piece of work
// is bracketed by reference samples; the piece's seconds are scaled by
// refNominal over the mean of the samples on either side of it.
type refClock struct {
	sample func() float64 // refSample; tests substitute a constant; nil: no rescaling
	last   float64        // the latest reference sample
	seen   []float64      // every sample, for the raw-figures comment
}

func newRefClock(sample func() float64) *refClock {
	c := &refClock{sample: sample}
	c.tick()
	return c
}

// tick takes a reference sample and returns the factor that rescales
// seconds timed since the previous sample. Without a sampler it returns 1.
func (c *refClock) tick() float64 {
	if c.sample == nil {
		return 1
	}
	prev := c.last
	c.last = c.sample()
	c.seen = append(c.seen, c.last)
	if prev == 0 {
		return 1
	}
	return 2 * refNominal / (prev + c.last)
}
