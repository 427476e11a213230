package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window is what one measured window observed.
type window struct {
	// latencyMS has one entry per operation attempted; a failed operation
	// is +Inf, so it counts against every percentile.
	latencyMS []float64
	failed    int
	wall      time.Duration
	cpu       time.Duration
}

func (w *window) add(took time.Duration, ok bool) {
	if !ok {
		w.failed++
		w.latencyMS = append(w.latencyMS, math.Inf(1))
		return
	}
	w.latencyMS = append(w.latencyMS, float64(took)/float64(time.Millisecond))
}

// merge folds another client's observations of the same window in.
func (w *window) merge(o *window) {
	w.latencyMS = append(w.latencyMS, o.latencyMS...)
	w.failed += o.failed
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (nearest rank) of the sorted samples,
// lowered to the highest rank that still has minBeyond samples above it and
// never below the median.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if limit := n - 1 - minBeyond; i > limit {
		i = limit
	}
	if mid := (n - 1) / 2; i < mid {
		i = mid
	}
	return sorted[i]
}

// median returns the middle value (the mean of the middle two for an even
// count) without reordering vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's resident-set high-water mark in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
