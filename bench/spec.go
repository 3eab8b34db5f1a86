package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile names the benchmark definition at the repository root. It is
// the one source of the workload list, the metric names and units, the
// regression bounds and the default run length.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json. The benchmark runs from
// the root (bench/run.sh) or from bench/ (go run ., go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("%s not found in the working directory or its parents", specFile)
}

// loadSpec reads BENCHMARK.json and checks that it names exactly the
// workloads and metrics this program produces, so the file and the code
// cannot drift apart silently.
func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", specFile, err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if err := sameSet("workload", names, workloadNames()); err != nil {
		return nil, err
	}
	if err := sameSet("end_to_end metric", metricNames(s.EndToEnd), endToEndNames); err != nil {
		return nil, err
	}
	if err := sameSet("per_layer metric", metricNames(s.PerLayer), layerNames); err != nil {
		return nil, err
	}
	return &s, nil
}

func metricNames(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func sameSet(what string, got, want []string) error {
	in := map[string]bool{}
	for _, g := range got {
		in[g] = true
	}
	for _, w := range want {
		if !in[w] {
			return fmt.Errorf("%s: %s %q is missing", specFile, what, w)
		}
		delete(in, w)
	}
	for g := range in {
		return fmt.Errorf("%s: unknown %s %q", specFile, what, g)
	}
	return nil
}
