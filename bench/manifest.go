package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifestFile is BENCHMARK.json: the one place the workloads' reasons and
// the metrics' units, directions and bounds are written down. The program
// reads it at start, so a metric it does not list cannot be reported and
// one it lists cannot be left out.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	units map[string]string
}

// manifest is the file the process was started with (see loadManifest).
var manifest *manifestFile

// loadManifest reads BENCHMARK.json from path into manifest and checks
// that it lists the workloads the program has, in the same order.
func loadManifest(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mf := &manifestFile{units: map[string]string{}}
	if err := json.Unmarshal(b, mf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(mf.Workloads) != len(specs) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", path, len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name {
			return fmt.Errorf("%s: workload %d is %q, the benchmark's is %q", path, i, w.Name, specs[i].name)
		}
	}
	for _, defs := range [][]metricDef{mf.EndToEnd, mf.PerLayer} {
		for _, d := range defs {
			mf.units[d.Name] = d.Unit
		}
	}
	manifest = mf
	return nil
}

// metric gives v the unit BENCHMARK.json lists for name.
func (mf *manifestFile) metric(name string, v float64) Metric {
	unit, ok := mf.units[name]
	if !ok {
		panic("bench: BENCHMARK.json does not list " + name)
	}
	return Metric{v, unit}
}

// missing returns the first of defs that m lacks, "" if it has them all.
func missing(m map[string]Metric, defs []metricDef) string {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			return d.Name
		}
	}
	return ""
}
