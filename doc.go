// Package memnet is a discrete-event simulator and power-management
// library for HMC-style memory networks, reproducing "Understanding and
// Optimizing Power Consumption in Memory Networks" (HPCA 2017).
//
// The root package holds the benchmark harness (bench_test.go), with one
// benchmark per paper table/figure plus ablations. The library lives
// under internal/: see README.md for the architecture map and DESIGN.md
// for the paper-to-module inventory.
//
// Entry points:
//
//	cmd/memnetsim     one simulation or a JSON batch
//	cmd/experiments   regenerate every paper table and figure
//	cmd/memnettrace   record / inspect / replay access traces
//	cmd/memnetviz     annotated topology tree
//	examples/         four runnable walkthroughs
package memnet
