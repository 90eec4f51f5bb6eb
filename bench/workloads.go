package main

import (
	"fmt"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// benchWorkload is one benchmark workload. spec is the cell every run of
// it simulates (SeedSalt varies per cell); for the daemon workload it is
// the cell behind each fresh memnetd job, which the traced run also
// simulates in-process so every workload reports every layer.
type benchWorkload struct {
	name   string
	spec   exp.Spec
	daemon bool
}

// The workloads, chosen so each layer is loaded by one and bypassed by
// another (bench/README.md gives the reasons and measured shapes):
// chain-managed loads links, routing and the event queue; tree-sparse
// loads the power manager and ROO timers with empty vault queues;
// star-writes carries write data on request links with the manager
// bypassed; daemon loads admission, the accept WAL, the result store and
// SSE. The daemon's cell (~30 ms) is long enough that simulation, not the
// fsyncs whose latency swings with the disk, sets a fresh job's latency.
var workloads = []benchWorkload{
	{name: "chain-managed", spec: exp.Spec{
		Workload: mustProfile("mixB"), Topology: topology.DaisyChain, Size: exp.Big,
		Mech: exp.MechVWLROO, Policy: core.PolicyAware, Alpha: 0.05,
		SimTime: 400 * sim.Microsecond, Warmup: 100 * sim.Microsecond,
	}},
	{name: "tree-sparse", spec: exp.Spec{
		Workload: mustProfile("sp.D"), Topology: topology.TernaryTree, Size: exp.Big,
		Mech: exp.MechVWLROO, Policy: core.PolicyAware, Alpha: 0.05,
		SimTime: 4000 * sim.Microsecond, Warmup: 100 * sim.Microsecond,
	}},
	{name: "star-writes", spec: exp.Spec{
		Workload: writeHeavyMixB(), Topology: topology.Star, Size: exp.Small,
		Mech: exp.MechFP, Policy: core.PolicyNone,
		SimTime: 1600 * sim.Microsecond, Warmup: 100 * sim.Microsecond,
	}},
	{name: "daemon", daemon: true, spec: exp.Spec{
		Workload: mustProfile("mixA"), Topology: topology.DaisyChain, Size: exp.Small,
		Mech: exp.MechFP, Policy: core.PolicyNone,
		SimTime: 100 * sim.Microsecond, Warmup: 20 * sim.Microsecond,
	}},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

func mustProfile(name string) *workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// writeHeavyMixB is mixB with 30% reads instead of 78%: write packets
// carry their line on the request links, the mirror image of the
// read-heavy workloads.
func writeHeavyMixB() *workload.Profile {
	p := *mustProfile("mixB")
	p.Name = "mixB-w30"
	p.ReadFraction = 0.30
	return &p
}

// scaled shrinks a simulator workload's cell to 1/n of its simulated
// length; the daemon's cell is already short.
func scaled(w benchWorkload, n sim.Duration) benchWorkload {
	if !w.daemon {
		w.spec.SimTime /= n
		w.spec.Warmup /= n
	}
	return w
}

// simMicros is a cell's simulated length, warmup included.
func simMicros(spec exp.Spec) float64 {
	return float64(spec.Warmup+spec.SimTime) / float64(sim.Microsecond)
}

// metricDef names one reported metric. bench_test.go holds these lists
// to BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd metrics come from untraced runs (-trace 0). An "op" is one
// cell through exp.RunCtx on the simulator workloads and one memnetd job
// (POST, stream until done, fetch result) on the daemon workload.
var endToEnd = []metricDef{
	{name: "wall_ms_per_sim_us", unit: "ms/us"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "max_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer metrics come from traced runs (-trace 1).
var perLayer = []metricDef{
	{name: "sim.events_per_access", unit: "count/access"},
	{name: "sim.pending_max", unit: "count"},
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.cancel_overhead", unit: "frac"},
	{name: "audit.overhead", unit: "frac"},
	{name: "link.transmits_per_access", unit: "count/access"},
	{name: "link.ns_per_transmit", unit: "ns"},
	{name: "dram.ns_per_access_queued", unit: "ns"},
	{name: "dram.ns_per_access_idle", unit: "ns"},
	{name: "core.epochs", unit: "count"},
	{name: "core.ms_per_epoch", unit: "ms"},
	{name: "workload.ns_per_sample", unit: "ns"},
	{name: "network.ns_per_read_idle", unit: "ns"},
	{name: "exp.setup_topology_ms", unit: "ms"},
	{name: "exp.setup_network_ms", unit: "ms"},
	{name: "exp.setup_manager_ms", unit: "ms"},
	{name: "exp.setup_frontend_ms", unit: "ms"},
	{name: "exp.alloc_mb_per_cell", unit: "MB"},
	{name: "serve.submit_ms_p50", unit: "ms"},
	{name: "serve.wal_accept_ms", unit: "ms"},
	{name: "serve.store_get_ms", unit: "ms"},
	{name: "serve.store_put_ms", unit: "ms"},
	{name: "serve.hit_latency_p50_ms", unit: "ms"},
	{name: "serve.fresh_latency_p99_ms", unit: "ms"},
	{name: "serve.cells_run", unit: "count", higher: true},
	{name: "serve.cache_hits", unit: "count", higher: true},
	{name: "serve.rejected", unit: "count"},
	{name: "ledger.unexplained_frac", unit: "frac"},
	{name: "trace.overhead", unit: "frac"},
	{name: "link.util_mean", unit: "frac"},
	{name: "link.queue_mean", unit: "packets"},
	{name: "dram.queued_mean", unit: "requests"},
	{name: "workload.outstanding_mean", unit: "requests"},
	{name: "network.read_latency_avg_ns", unit: "ns"},
	{name: "network.read_latency_p99_ns", unit: "ns"},
	{name: "power.per_hmc_w", unit: "W"},
	{name: "core.violations", unit: "count"},
}
