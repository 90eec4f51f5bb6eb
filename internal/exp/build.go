package exp

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/metrics"
	"memnet/internal/network"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Sim is one spec's simulation as Build wires it: a kernel with the
// network, power manager, front end and every armed observer attached,
// traffic started and no event run yet. Measure runs and measures it;
// memnetviz calls it directly to render the model it measured.
type Sim struct {
	Spec     Spec // resolved
	Kernel   *sim.Kernel
	Net      *network.Network
	Manager  *core.Manager
	FrontEnd *workload.FrontEnd

	audit   *audit.Auditor    // nil unless Spec.AuditEvery > 0
	metrics *metrics.Registry // nil unless Spec.MetricsInterval > 0
}

// BuildNetwork builds spec's topology over the given module count, then
// its network and power manager on kernel: the part of Build that does
// not depend on the workload, for callers that bring their own traffic
// (trace replay). It runs the spec range check with the workload
// optional.
func BuildNetwork(kernel *sim.Kernel, spec Spec, modules int) (*network.Network, *core.Manager, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	return buildNetwork(kernel, spec.resolved(), modules)
}

// buildNetwork is BuildNetwork on a checked, resolved spec.
func buildNetwork(kernel *sim.Kernel, spec Spec, modules int) (*network.Network, *core.Manager, error) {
	topo, err := topology.Build(spec.Topology, modules)
	if err != nil {
		return nil, nil, err
	}
	netCfg := network.DefaultConfig()
	netCfg.Mechanism = spec.Mech.BW
	netCfg.ROO = spec.Mech.ROO
	netCfg.Wakeup = spec.Wakeup
	netCfg.ChunkBytes = uint64(spec.Size.ChunkGB()) << 30
	netCfg.Interleave = spec.Interleave
	netCfg.DRAM = *spec.DRAM
	pm := power.DefaultModel()
	pm.PeakWatts = spec.PeakWatts
	netCfg.Power = &pm
	net := network.New(kernel, topo, netCfg)

	mcfg := core.DefaultConfig(spec.Policy, spec.Alpha)
	mcfg.CollectLinkHours = spec.CollectLinkHours
	return net, core.Attach(kernel, net, mcfg), nil
}

// Build wires spec's simulation: kernel, topology, network, power
// manager, auditor, metrics registry and front end (seeded by Spec.seed),
// in that order, then starts the traffic. The order fixes event sequence
// numbers, so every run of a spec — measured, traced or rendered — is the
// same run. A spec that fails Validate builds nothing.
func Build(spec Spec) (*Sim, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.resolved()
	s := &Sim{Spec: spec, Kernel: sim.NewKernel()}
	kernel := s.Kernel
	net, mgr, err := buildNetwork(kernel, spec, spec.Workload.Modules(spec.Size.ChunkGB()))
	if err != nil {
		return nil, err
	}
	s.Net, s.Manager = net, mgr

	if spec.AuditEvery > 0 {
		s.audit = audit.New(audit.Config{SampleEvery: uint64(spec.AuditEvery)}, kernel.Now)
		net.AttachAudit(s.audit)
		s.audit.RegisterSweep(func(now sim.Time, report func(component, rule, detail string)) {
			if err := kernel.CheckInvariants(); err != nil {
				report("kernel", "event-queue", err.Error())
			}
		})
	}

	// The metrics registry attaches before traffic exists and samples
	// only once Measure runs it from the warmup boundary. It schedules
	// no event, armed or not.
	if spec.MetricsInterval > 0 {
		s.metrics = metrics.New(spec.MetricsInterval)
		net.AttachMetrics(s.metrics)
		mgr.AttachMetrics(s.metrics)
	}

	fe, err := workload.NewFrontEnd(kernel, net, spec.Workload, workload.DefaultFrontEndConfig(spec.seed()))
	if err != nil {
		return nil, err
	}
	s.FrontEnd = fe
	fe.AttachMetrics(s.metrics)
	if s.audit != nil {
		// Request conservation across the front-end boundary: reads and
		// writes map one-to-one onto injections. Holds mid-event because
		// both sides update their counters before anything samplable runs.
		s.audit.RegisterSweep(func(now sim.Time, report func(component, rule, detail string)) {
			injR, injW := net.Injected()
			issR, issW := fe.Issued()
			if injR != issR {
				report("frontend", "read-conservation", fmt.Sprintf(
					"injected reads %d != issued %d", injR, issR))
			}
			if injW != issW {
				report("frontend", "write-conservation", fmt.Sprintf(
					"injected writes %d != issued %d", injW, issW))
			}
			if out := fe.Outstanding(); out < 0 {
				report("frontend", "outstanding-negative", fmt.Sprintf(
					"outstanding request count %d", out))
			}
		})
	}

	fe.Start()
	return s, nil
}
