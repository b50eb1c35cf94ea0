package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareMain diffs two result documents metric by metric, one row per
// workload, and judges each end-to-end metric against its BENCHMARK.json
// bound. It exits non-zero when any metric regressed beyond its bound.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [--spec BENCHMARK.json] <old.json> <new.json>")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	old, err := readDocument(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readDocument(fs.Arg(1))
	if err != nil {
		return err
	}
	if old.Machine != cur.Machine {
		fmt.Printf("warning: machines differ:\n  old %+v\n  new %+v\n", old.Machine, cur.Machine)
	}

	regressed := 0
	for _, w := range sp.Workloads {
		o, n := old.Workloads[w.Name], cur.Workloads[w.Name]
		if o == nil || n == nil {
			continue
		}
		var cells []string
		if o.Untraced != nil && n.Untraced != nil {
			for _, m := range sp.EndToEnd {
				cell, bad := compareMetric(m, o.Untraced.Metrics[m.Name].Value, n.Untraced.Metrics[m.Name].Value)
				if bad {
					regressed++
				}
				cells = append(cells, cell)
			}
		}
		if o.Traced != nil && n.Traced != nil {
			names := make([]string, 0, len(n.Traced.Metrics))
			for k := range n.Traced.Metrics {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				a, b := o.Traced.Metrics[k].Value, n.Traced.Metrics[k].Value
				if a != b {
					cells = append(cells, fmt.Sprintf("%s %s", k, change(a, b)))
				}
			}
		}
		fmt.Printf("%-15s %s\n", w.Name, strings.Join(cells, " | "))
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics worse than their bound", regressed)
	}
	return nil
}

// compareMetric renders one end-to-end metric's change and reports whether
// it got worse by more than the metric's bound.
func compareMetric(m metricSpec, old, cur float64) (string, bool) {
	worse := cur > old
	if m.Better == "higher" {
		worse = cur < old
	}
	bad := false
	if old != 0 {
		rel := (cur - old) / old
		if rel < 0 {
			rel = -rel
		}
		bad = worse && rel > m.Bound
	}
	verdict := "ok"
	if bad {
		verdict = "WORSE"
	}
	return fmt.Sprintf("%s %s %s", m.Name, change(old, cur), verdict), bad
}

func change(old, cur float64) string {
	if old == 0 {
		return fmt.Sprintf("%.4g->%.4g", old, cur)
	}
	return fmt.Sprintf("%.4g->%.4g (%+.1f%%)", old, cur, 100*(cur-old)/old)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read document: %w", err)
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}
