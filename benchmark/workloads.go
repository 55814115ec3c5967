package main

import (
	"fmt"
	"sort"
)

// workloads maps each workload name to its constructor; the definitions,
// with why each was chosen, sit beside their types (suite.go, sweep.go,
// serve.go).
var workloads = map[string]func(config) (workload, error){
	"suite": func(c config) (workload, error) { return newSuite(c) },
	"sweep": func(c config) (workload, error) { return newSweep(c) },
	"serve": func(c config) (workload, error) { return newServe(c) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, cfg config) (workload, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return mk(cfg)
}
