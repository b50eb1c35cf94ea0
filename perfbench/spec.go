package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the program reads: the workload names and
// the metric lists. BENCHMARK.json is the single source of truth for which
// metrics a run prints and for the bounds compare mode applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must be non-empty", path)
	}
	return &s, nil
}

func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
