// Command bench is the repository's performance ledger: five workloads
// driven socket to socket against in-process deployments, nine end-to-end
// metrics with regression bounds, and a traced run that attributes time to
// layers. BENCHMARK.json at the repository root describes it; README.md in
// this directory explains every workload, metric and design decision.
//
// One run is one workload, one seed, one mode:
//
//	bench -workload brokerd-ticker -seed 1 -seconds 12 -trace 0
//
// prints the run's metrics by name and unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without -workload every workload runs; without -trace both modes run;
// -repeat N runs it all N times on consecutive seeds and prints the spread;
// -out writes every run to a file that -compare reads:
//
//	bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runRecord is one run as -out stores it and -compare reads it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
}

type runFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of the generated subscriptions and events")
		seconds  = flag.Float64("seconds", 12, "seconds of timed measurement per run, split evenly between ping and saturate")
		trace    = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass (default: both, as two runs)")
		repeat   = flag.Int("repeat", 1, "run everything this many times, on consecutive seeds, and print the spread")
		out      = flag.String("out", "", "write every run's result to this JSON file")
		spans    = flag.String("spans", "", "write the traced run's spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, by the bounds in -manifest")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark description holding the regression bounds")
	)
	flag.Parse()
	pinScheduler()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), *manifest)
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	specs := workloads
	if *workload != "" {
		spec, ok := lookupWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *workload)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, " %s", w.name)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	var modes []int
	switch *trace {
	case "":
		modes = []int{0, 1}
	case "0":
		modes = []int{0}
	case "1":
		modes = []int{1}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace is 0 or 1, not %q\n", *trace)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive")
		return 2
	}

	var jobs []runRecord
	for rep := 0; rep < *repeat; rep++ {
		for _, spec := range specs {
			for _, mode := range modes {
				jobs = append(jobs, runRecord{Workload: spec.name, Seed: *seed + uint64(rep), Seconds: *seconds, Trace: mode})
			}
		}
	}
	if *spans != "" && (len(jobs) != 1 || jobs[0].Trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -spans goes with one traced run: give -workload and -trace 1")
		return 2
	}

	// A run that hangs past every per-phase deadline still ends: the
	// process exits, which stops every server and goroutine it started.
	perRun := time.Duration(*seconds*float64(time.Second)) + 150*time.Second
	status := 0
	var file runFile
	for _, rec := range jobs {
		var err error
		if len(jobs) == 1 {
			rec.result, err = runHere(rec, *spans, perRun)
		} else {
			// One process per run, as the benchmark is run for the record:
			// runs then share no heap, no scheduler history and no
			// goroutine still winding down.
			rec.result, err = runChild(rec, perRun)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", rec.Workload, err)
			return 1
		}
		file.Runs = append(file.Runs, rec)
		printRun(rec)
		if !rec.Correct {
			status = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	if *repeat > 1 {
		printSpread(file.Runs)
	}
	return status
}

// pinScheduler runs the whole process — load generator, shape under test,
// client side — on one scheduler thread unless the environment says
// otherwise. On the two-core reference box that is both faster and far
// steadier than the default: with two, the second mostly runs idle-priority
// garbage-collection workers and spinning scheduler threads (CPU per event
// on brokerd-ticker 1040 µs against 580 µs), every hand-off between
// publisher, broker and client crosses cores, and each core a neighbour on
// the host steals stalls the whole pipeline (spread over ten seeds 22–48 %
// against 2–14 % in the same hour). What the metrics then measure is the
// path's total work over real sockets; what they cannot show is a parallel
// speed-up — set GOMAXPROCS in the environment, on a box with cores to
// spare, to measure one.
func pinScheduler() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

// runHere executes one run in this process.
func runHere(rec runRecord, spansPath string, limit time.Duration) (result, error) {
	spec, _ := lookupWorkload(rec.Workload) // main made rec from the workload table
	cfg := defaultScale(runConfig{spec: spec, seed: rec.Seed, seconds: rec.Seconds, trace: rec.Trace == 1, log: os.Stderr})
	if spansPath != "" {
		cfg.spans = newTracer()
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: run exceeded %v, giving up\n", cfg.spec.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := run(cfg)
	if err != nil {
		return result{}, err
	}
	if cfg.spans != nil {
		if err := cfg.spans.writeFile(spansPath); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// runChild executes one run in a process of its own and reads the result
// off the last line of its standard output.
func runChild(rec runRecord, limit time.Duration) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", rec.Workload, "-seed", strconv.FormatUint(rec.Seed, 10),
		"-seconds", strconv.FormatFloat(rec.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(rec.Trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		// No result: the run itself failed, and said why on standard error.
		return result{}, fmt.Errorf("run in a process of its own: %v", runErr)
	}
	return res, nil // an incorrect run exits non-zero and still reports
}

// printRun prints one run: every metric by name and unit, then the result
// as one JSON object on a line of its own.
func printRun(rec runRecord) {
	mode := "end-to-end, tracing off"
	if rec.Trace == 1 {
		mode = "per-layer, traced pass"
	}
	fmt.Printf("== %s  seed %d  %gs  %s\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%-42s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-42s %16d of %d\n", "failed operations", rec.Failed, rec.Attempted)
	line, _ := json.Marshal(rec.result) // a struct of numbers, strings and a map of the same: cannot fail
	fmt.Println(string(line))
}
