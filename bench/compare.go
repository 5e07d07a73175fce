package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ResultLine is the last line a run prints: exactly the keys the
// benchmark contract names.
type ResultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// recordedRun is one line of a run file: a result with the workload and
// environment it came from.
type recordedRun struct {
	Workload string     `json:"workload"`
	Env      Env        `json:"env"`
	Result   ResultLine `json:"result"`
}

// AppendRun adds one run to a run file, creating it if need be.
func AppendRun(path, workload string, env Env, line ResultLine) error {
	data, err := json.Marshal(recordedRun{workload, env, line})
	if err != nil {
		return fmt.Errorf("bench: encoding run: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: opening run file: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing run file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: closing run file: %w", err)
	}
	return nil
}

// readRuns loads a run file into workload → metric → values. Failed
// operations are kept per workload: a gain does not count when more
// operations fail.
func readRuns(path string) (map[string]map[string][]float64, map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: opening %s: %w", path, err)
	}
	defer f.Close()
	vals := make(map[string]map[string][]float64)
	failed := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var run recordedRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, nil, fmt.Errorf("bench: %s line %d: %w", path, n, err)
		}
		if vals[run.Workload] == nil {
			vals[run.Workload] = make(map[string][]float64)
		}
		for name, m := range run.Result.Metrics {
			vals[run.Workload][name] = append(vals[run.Workload][name], m.Value)
		}
		failed[run.Workload] += run.Result.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("bench: reading %s: %w", path, err)
	}
	return vals, failed, nil
}

// spread is the distance between the quartiles as a share of the median,
// 0 with fewer than two runs.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return ratio(q3-q1, median(samples))
}

// verdict judges one workload × metric row. worsening is B's median
// against A's as a share of A's, positive when B is worse.
//
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than the bound
//	same        the medians are within the bound of each other
//	unresolved  either side's run-to-run spread is wider than the bound,
//	            unless every run of one side beats every run of the other
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worsening := ratio(mb-ma, ma)
	if better == "higher" {
		worsening = -worsening
	}
	beats := func(x, y float64) bool { // x reads better than y
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	allBeat := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	if spread(a) > bound || spread(b) > bound {
		switch {
		case allBeat(b, a):
			return "better", worsening
		case allBeat(a, b) && worsening > bound:
			return "worse", worsening
		}
		return "unresolved", worsening
	}
	switch {
	case worsening > bound:
		return "worse", worsening
	case worsening < -bound:
		return "better", worsening
	}
	return "same", worsening
}

// Compare applies the bounds in the benchmark definition to two run files
// and renders one row per workload × end-to-end metric.
func Compare(benchmarkPath, pathA, pathB string) (string, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return "", fmt.Errorf("bench: reading benchmark definition: %w", err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return "", fmt.Errorf("bench: parsing %s: %w", benchmarkPath, err)
	}
	a, failedA, err := readRuns(pathA)
	if err != nil {
		return "", err
	}
	b, failedB, err := readRuns(pathB)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-10s %-30s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			word, worsening := verdict(va, vb, m.Better, m.Bound)
			if word == "better" && failedB[w.Name] > failedA[w.Name] {
				word = "unresolved" // more operations failed: not a gain
			}
			fmt.Fprintf(&out, "%-10s %-30s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*worsening, 100*m.Bound, word)
		}
	}
	out.WriteString("change is B against A as a share of A, positive when B is worse\n")
	return out.String(), nil
}
