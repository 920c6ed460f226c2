package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifestFile is BENCHMARK.json, as far as the program reads it.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// series collects, per workload and metric, the values of the untraced
// runs: the ones that carry end-to-end metrics.
func series(runs []runRecord) map[string]map[string][]float64 {
	s := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their spreads, the bound and a verdict; every ratio is shown with
// its base. It returns 1 when any metric got worse, 0 otherwise.
func compareFiles(oldPath, newPath, manifestPath string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	olds, news := series(oldRuns), series(newRuns)
	counts := map[verdict]int{}
	for _, w := range workloads {
		if len(olds[w.name]) == 0 || len(news[w.name]) == 0 {
			continue
		}
		fmt.Printf("== %s\n", w.name)
		fmt.Printf("%-22s %-9s %14s %7s %14s %7s %8s %6s  %s\n", "metric", "unit", "old median", "spread", "new median", "spread", "change", "bound", "verdict")
		for _, mm := range man.EndToEnd {
			o, n := olds[w.name][mm.Name], news[w.name][mm.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v, change := judge(o, n, mm.Bound, mm.Better)
			counts[v]++
			fmt.Printf("%-22s %-9s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				mm.Name, mm.Unit, median(o), 100*relSpread(o), median(n), 100*relSpread(n), 100*change, 100*mm.Bound, v)
		}
	}
	fmt.Printf("change is the new median's distance from the old median as a share of the old, positive = worse; %d old and %d new runs\n", len(oldRuns), len(newRuns))
	fmt.Printf("better %d  same %d  worse %d  unresolved %d\n", counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// suggestBound derives a regression bound from the spreads a metric showed
// across workloads: three times the widest inter-quartile spread, so that
// the spread stays under a third of the bound, at least 10 % and at most the
// 25 % the benchmark contract allows.
func suggestBound(spreads []float64) float64 {
	widest := 0.0
	for _, s := range spreads {
		widest = math.Max(widest, s)
	}
	return math.Min(0.25, math.Max(0.10, math.Ceil(300*widest)/100))
}

// printSpread summarizes repeated runs: per workload and end-to-end metric
// the median, quartiles and relative spread, then the bound each metric's
// spread suggests.
func printSpread(runs []runRecord) {
	s := series(runs)
	spreads := map[string][]float64{}
	for _, w := range workloads {
		if len(s[w.name]) == 0 {
			continue
		}
		fmt.Printf("== spread over seeds: %s\n", w.name)
		fmt.Printf("%-22s %-9s %14s %14s %14s %7s\n", "metric", "unit", "q1", "median", "q3", "spread")
		for _, d := range endToEndMetrics {
			vals := s[w.name][d.name]
			if len(vals) < 2 {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Printf("%-22s %-9s %14.4f %14.4f %14.4f %6.1f%%\n", d.name, d.unit, q1, median(vals), q3, 100*relSpread(vals))
			spreads[d.name] = append(spreads[d.name], relSpread(vals))
		}
	}
	fmt.Println("== suggested bounds (3 x widest spread, within 10%..25%)")
	for _, d := range endToEndMetrics {
		if len(spreads[d.name]) > 0 {
			fmt.Printf("%-22s %.2f\n", d.name, suggestBound(spreads[d.name]))
		}
	}
}
