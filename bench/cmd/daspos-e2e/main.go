// Command daspos-e2e runs one workload of the end-to-end benchmark and
// prints its metrics, or compares two recorded sets of runs.
//
// Usage:
//
//	daspos-e2e -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	daspos-e2e -compare A.jsonl B.jsonl [-benchmark BENCHMARK.json]
//	daspos-e2e -print-benchmark
//
// A run prints one progress line per phase, the metrics as a table, and
// as the last line of standard output one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 1 the workload is
// repeated with spans recorded, the metrics are the per-layer ones, and
// the spans go to bench/out/trace-<workload>.json. bench/run.sh is the
// entry point that builds this command and keeps its files inside the
// checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"daspos/bench"
)

// commit is stamped by run.sh (-ldflags -X) when the tree is a git
// checkout.
var commit = "unknown"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: produce, preserve, query, recast or chain")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", bench.RunSeconds, "target length of the timed part; counts scale with it")
	trace := flag.Int("trace", 0, "1 repeats the workload with spans recorded and prints the per-layer metrics")
	outDir := flag.String("out", "bench/out", "directory for trace files")
	compare := flag.Bool("compare", false, "compare two run files (arguments A.jsonl B.jsonl) against the bounds in -benchmark")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark definition -compare reads the bounds from")
	printBenchmark := flag.Bool("print-benchmark", false, "print the BENCHMARK.json that matches the metric catalogue")
	record := flag.String("record", "", "append this run's result line, tagged with the workload, to a run file for -compare")
	flag.Parse()

	switch {
	case *printBenchmark:
		data, err := bench.BenchmarkJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(data)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two run files"))
		}
		report, err := bench.Compare(*benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		fmt.Print(report)
		return 0
	}

	// Numbers that cannot mean what they say are not recorded: worker
	// pools and client concurrency need a second core to be exercised.
	if runtime.GOMAXPROCS(0) < 2 {
		return fail(fmt.Errorf("GOMAXPROCS is %d; the benchmark needs at least 2", runtime.GOMAXPROCS(0)))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	tmp, err := os.MkdirTemp("", "daspos-e2e-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	opt := bench.Options{
		Workload: *workload, Seed: *seed, Scale: *seconds / bench.RunSeconds,
		Trace: *trace != 0, OutDir: *outDir, TmpDir: tmp, Log: os.Stdout,
	}
	env := bench.EnvFor(opt, commit)
	fmt.Printf("daspos-e2e %s: seed %d, scale %.3g, %s, commit %s, GOMAXPROCS %d, %d clients\n",
		opt.Workload, env.Seed, env.Scale, env.GoVersion, env.Commit, env.GOMAXPROCS, env.Clients)
	res, err := bench.Run(opt, commit)
	if err != nil {
		return fail(err)
	}
	fmt.Print(res.Table())
	for _, note := range res.Failures {
		fmt.Println("FAILED:", note)
	}
	if res.TracePath != "" {
		fmt.Println("trace:", res.TracePath)
	}
	line := bench.ResultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	if *record != "" {
		if err := bench.AppendRun(*record, opt.Workload, env, line); err != nil {
			return fail(err)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "daspos-e2e:", err)
	return 2
}
