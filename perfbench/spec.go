package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json perfbench reads: the workload names
// and the two metric lists. The file is the single source of metric names
// and units; perfbench only computes values.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark specification: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metric list a run reports: end-to-end with tracing
// off, per-layer with tracing on.
func (s *spec) metrics(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
