// Command perfbench is the repository's benchmark. It runs one named workload
// (or all of them) against the public functions of the simulator, protocol,
// evaluator and daemon packages and prints its metrics.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <old.json> <new.json>
//
// With --trace 0 a run reports the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it reports the per-layer metrics from one
// traced timed phase. The last stdout line is the run's result object; the
// line before it is the result document, which adds the machine fingerprint
// and the failed checks. --workload all runs every workload untraced and then
// traced, each in a child process, and writes one document for compare mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// document is one result document: a machine fingerprint and, per workload,
// the untraced (end-to-end) and traced (per-layer) results.
type document struct {
	Schema    string                     `json:"schema"`
	Machine   machine                    `json:"machine"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Untraced *runResult `json:"untraced,omitempty"`
	Traced   *runResult `json:"traced,omitempty"`
}

type runResult struct {
	result
	Notes []string `json:"notes,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain() error {
	name := flag.String("workload", "", "workload name from BENCHMARK.json, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long an untraced run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition")
	outDir := flag.String("outdir", ".bench_build", "directory for traces, cached outputs and documents")
	out := flag.String("out", "", "also write the result document to this file")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	reg := workloads()
	var names []string
	switch {
	case *name == "all":
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	case *name != "":
		names = []string{*name}
	default:
		return fmt.Errorf("--workload is required")
	}
	for _, n := range names {
		if reg[n] == nil || !specHasWorkload(sp, n) {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}

	doc := &document{
		Schema:    "perfbench/v1",
		Machine:   fingerprint(),
		Seed:      *seed,
		Seconds:   *seconds,
		Workloads: map[string]*workloadResult{},
	}
	total := result{Metrics: map[string]metricValue{}}
	for _, n := range names {
		wr := &workloadResult{}
		doc.Workloads[n] = wr
		var runs []*runResult
		if *name == "all" {
			// One child process per workload and mode, so no memory of an
			// earlier workload counts against a later one's peak RSS.
			child, err := runChild(n, *seed, *seconds, *specPath, *outDir)
			if err != nil {
				return fmt.Errorf("workload %s: %w", n, err)
			}
			wr.Untraced, wr.Traced = child.Untraced, child.Traced
			runs = []*runResult{wr.Untraced, wr.Traced}
		} else {
			rr, err := runOne(sp, reg[n], *seed, *seconds, *trace == 1, *outDir)
			if err != nil {
				return fmt.Errorf("workload %s: %w", n, err)
			}
			if *trace == 1 {
				wr.Traced = rr
			} else {
				wr.Untraced = rr
			}
			printTable(n, *trace == 1, rr)
			runs = []*runResult{rr}
		}
		for _, rr := range runs {
			total.Attempted += rr.Attempted
			total.Failed += rr.Failed
			for k, v := range rr.Metrics {
				key := k
				if *name == "all" {
					key = n + "/" + k
				}
				total.Metrics[key] = v
			}
		}
	}
	total.Correct = total.Failed == 0 && total.Attempted > 0

	docJSON, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, docJSON, 0o644); err != nil {
			return fmt.Errorf("write document: %w", err)
		}
	}
	fmt.Println(string(docJSON))
	last, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// runChild runs one workload untraced and then traced, each in a child
// process of this program, passing the children's tables through and
// returning their results.
func runChild(name string, seed int64, seconds float64, specPath, outDir string) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace,
			"--spec", specPath, "--outdir", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child run: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 2 {
			return nil, fmt.Errorf("child run printed no result")
		}
		var doc document
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &doc); err != nil {
			return nil, fmt.Errorf("child document: %w", err)
		}
		fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
		child := doc.Workloads[name]
		if child == nil {
			return nil, fmt.Errorf("child document lacks workload %s", name)
		}
		if trace == "1" {
			wr.Traced = child.Traced
		} else {
			wr.Untraced = child.Untraced
		}
	}
	if wr.Untraced == nil || wr.Traced == nil {
		return nil, fmt.Errorf("child results incomplete")
	}
	return wr, nil
}

func specHasWorkload(sp *spec, name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runOne runs one workload untraced or traced and returns the metrics
// BENCHMARK.json lists for that mode. A per-layer metric the workload does
// not exercise reads 0; a missing end-to-end metric is an error.
func runOne(sp *spec, w *workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	c := &checker{}
	var vals map[string]float64
	var err error
	if traced {
		vals, err = runTraced(w, seed, c, outDir)
	} else {
		vals, err = runUntraced(w, seed, seconds, c, outDir)
	}
	if err != nil {
		return nil, err
	}
	rr := &runResult{result: result{Metrics: map[string]metricValue{}}, Notes: c.notes}
	for _, m := range sp.metrics(traced) {
		v, ok := vals[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		rr.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, note := range c.notes {
		fmt.Fprintln(os.Stderr, "check failed:", note)
	}
	rr.Attempted, rr.Failed = c.attempted, c.failed
	rr.Correct = c.failed == 0 && c.attempted > 0
	return rr, nil
}

func printTable(name string, traced bool, rr *runResult) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	keys := make([]string, 0, len(rr.Metrics))
	for k := range rr.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s (%s): %d checks attempted, %d failed\n", name, mode, rr.Attempted, rr.Failed)
	for _, k := range keys {
		fmt.Printf("%-16s %-28s %16.6g %s\n", name, k, rr.Metrics[k].Value, rr.Metrics[k].Unit)
	}
}
