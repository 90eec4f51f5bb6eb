// Command memnetviz runs one simulation and renders the network as an
// annotated tree — per-link bandwidth modes, utilization meters and
// off-time — plus the run's time series sampled per 100 µs epoch. It is
// the quickest way to see *where* in the topology a policy is saving
// power.
//
//	memnetviz -wl sp.D -topo daisychain -size big -mech VWL+ROO -policy aware
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"memnet/internal/cli"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/sim"
	"memnet/internal/viz"
)

func main() { os.Exit(cli.Status(run())) }

func run() error {
	wlName := flag.String("wl", "sp.D", "workload profile")
	topoName := flag.String("topo", "daisychain", "topology")
	sizeName := flag.String("size", "big", "small or big")
	mechName := flag.String("mech", "VWL+ROO", "link power mechanism")
	policyName := flag.String("policy", "aware", "none | unaware | aware | static")
	alpha := flag.Float64("alpha", 0.05, "allowable slowdown factor")
	simtime := flag.String("simtime", "500us", "simulated time")
	flag.Parse()

	spec, err := exp.Axes{Workload: *wlName, Topology: *topoName, Size: *sizeName,
		Mechanism: *mechName, Policy: *policyName}.Parse()
	if err != nil {
		return cli.FlagError(err)
	}
	spec.Alpha = *alpha
	if spec.SimTime, err = cli.PositiveDuration("simtime", *simtime); err != nil {
		return err
	}
	spec.MetricsInterval = 100 * sim.Microsecond // the manager's epoch
	s, err := exp.Build(spec)
	var fe *exp.FieldError
	if errors.As(err, &fe) && fe.Field == "metrics_interval" {
		// The interval is fixed here, so its sample bound bounds -simtime.
		return fmt.Errorf("bad -simtime: %v", fe.Err)
	}
	if err != nil {
		return cli.FlagError(err)
	}
	res, err := s.Measure(context.Background(), exp.Budget{})
	if err != nil {
		return err
	}
	net, mech, elapsed := s.Net, s.Spec.Mech, s.Kernel.Now()

	fmt.Printf("%s on %s %s, %s links, %s policy, alpha=%.1f%%, %s simulated\n\n",
		spec.Workload.Name, spec.Size, spec.Topology, mech, spec.Policy, 100*spec.Alpha, elapsed)

	linkDesc := func(l *link.Link) string {
		util := float64(l.BusyTime()) / float64(elapsed)
		mode := ""
		if mech.BW != link.MechNone {
			mode = fmt.Sprintf(" %2dL", link.Lanes(l.BWTarget()))
			if mech.BW == link.MechDVFS {
				mode = fmt.Sprintf(" %3.0f%%bw", 100*link.BWFactor(mech.BW, l.BWTarget()))
			}
		}
		off := ""
		if mech.ROO {
			off = fmt.Sprintf(" roo:%s", link.ROOThresholds[l.ROOMode()])
		}
		return fmt.Sprintf("%s %s %4.1f%%%s%s", l.Dir.String()[:3], viz.Bar(util, 10), 100*util, mode, off)
	}
	annotate := func(m int) string {
		mod := net.Modules[m]
		return fmt.Sprintf("↓%s  ↑%s", linkDesc(mod.UpReq), linkDesc(mod.UpResp))
	}
	fmt.Print(viz.RenderTree(net.Topo, annotate))

	fmt.Printf("\n%s", viz.RenderTimeSeries(res.Metrics))
	fmt.Printf("avg power: %.2f W total (%.2f W/HMC), idle I/O %.0f%%\n",
		res.Power.Total(), res.PerHMC.Total(), 100*res.IdleIOFraction())
	return nil
}
