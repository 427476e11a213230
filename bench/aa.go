package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// manifest is the part of BENCHMARK.json the A/A check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs every workload as two interleaved sets of the same code, A and
// B, every run with a seed of its own, and prints per workload and end-to-end metric both
// medians, how much worse B's is than A's, the larger of the two sets'
// run-to-run spreads (interquartile range over median) and the bound. Any difference
// beyond its bound is an error: the benchmark could not tell that two sets
// of runs of one program are the same.
func runAA(runs int, seconds float64) error {
	if runs < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set, got %d", runs)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	exceeded := 0
	fmt.Println("| workload | metric | median A | median B | B worse by | spread | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			// Alternate which set goes first, so drift hits both alike.
			for _, set := range [2]int{i % 2, 1 - i%2} {
				seed, t0 := int64(set*runs+i+1), time.Now()
				res, err := runChild(exe, w.Name, seed, seconds)
				fmt.Fprintf(os.Stderr, "%s set %c seed %d: %.1f s\n", w.Name, 'A'+set, seed, time.Since(t0).Seconds())
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
				}
				for name, mv := range res.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		for _, em := range m.EndToEnd {
			a, b := median(sets[0][em.Name]), median(sets[1][em.Name])
			worse := (b - a) / a
			if em.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(iqrShare(sets[0][em.Name]), iqrShare(sets[1][em.Name]))
			mark := ""
			switch {
			case math.Abs(worse) > em.Bound:
				mark = "EXCEEDS"
				exceeded++
			case math.Abs(worse) > em.Bound/2 || spread > em.Bound/3:
				mark = "noisy"
			}
			fmt.Printf("| %s | %s (%s) | %.6g | %.6g | %+.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.Name, em.Name, em.Unit, a, b, 100*worse, 100*spread, 100*em.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// runChild runs one workload in a fresh process, so that peak memory and
// set-up time are that run's own, and parses its last output line.
func runChild(exe, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}

// iqrShare is the interquartile range of vals as a share of their median.
func iqrShare(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method).
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
