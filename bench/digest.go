package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"memnet/internal/audit"
	"memnet/internal/exp"
	"memnet/internal/power"
	"memnet/internal/sim"
)

// digest is the part of a cell's result the model decides: a change that
// only speeds up the simulator must leave it bit-identical. Events is
// left out on purpose, so removing events that change nothing else still
// passes.
type digest struct {
	Power          power.Breakdown
	Throughput     float64
	AvgReadLatency sim.Duration
	P50, P95, P99  sim.Duration
	ChannelUtil    float64
	LinkUtil       float64
	LinksPerAccess float64
	Violations     uint64
	Granted        uint64
}

func digestOf(r exp.Result) digest {
	return digest{
		Power:          r.Power,
		Throughput:     r.Throughput,
		AvgReadLatency: r.AvgReadLatency,
		P50:            r.P50,
		P95:            r.P95,
		P99:            r.P99,
		ChannelUtil:    r.ChannelUtil,
		LinkUtil:       r.LinkUtil,
		LinksPerAccess: r.LinksPerAccess,
		Violations:     r.Violations,
		Granted:        r.Granted,
	}
}

// expectedJSON pins each workload's reference-cell digest at seed 1.
// Regenerate it deliberately, from bench/, with
// go run . -update testdata/expected.json.
//
//go:embed testdata/expected.json
var expectedJSON []byte

func loadExpected() (map[string]digest, error) {
	var m map[string]digest
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return m, nil
}

// splitmix64 spreads seeds so neighbouring (seed, cell) pairs give
// unrelated workload seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellSpec is cell i of a run with the given seed, run the way memnetsim
// and cmd/experiments run cells by default: audited at the default
// stride. Cell 0 of every run is the reference cell of seed 1, whose
// digest is pinned, so every run checks the model whatever its seed.
func cellSpec(w benchWorkload, seed uint64, i int) exp.Spec {
	spec := w.spec
	if i == 0 {
		seed = 1
	}
	spec.SeedSalt = splitmix64(seed<<20 ^ uint64(i))
	spec.AuditEvery = audit.DefaultSampleEvery
	return spec
}

// referenceSpec is the cell whose digest is pinned. For the daemon it is
// the fresh job's cell exactly as memnetd runs it (no seed salt).
func referenceSpec(w benchWorkload) exp.Spec {
	if w.daemon {
		spec := w.spec
		spec.AuditEvery = audit.DefaultSampleEvery
		return spec
	}
	return cellSpec(w, 1, 0)
}

// updateExpected reruns every reference cell and rewrites the pins.
func updateExpected(ctx context.Context, path string) error {
	m := map[string]digest{}
	for _, w := range workloads {
		res, err := exp.RunCtx(ctx, referenceSpec(w))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		m[w.name] = digestOf(res)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
