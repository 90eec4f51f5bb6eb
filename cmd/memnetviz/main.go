// Command memnetviz runs one simulation and renders the network as an
// annotated tree — per-link bandwidth modes, utilization meters and
// off-time — plus a channel-utilization sparkline sampled per epoch. It is
// the quickest way to see *where* in the topology a policy is saving
// power.
//
//	memnetviz -wl sp.D -topo daisychain -size big -mech VWL+ROO -policy aware
package main

import (
	"flag"
	"fmt"
	"os"

	"memnet/internal/cli"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/network"
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
	s, err := exp.Build(spec)
	if err != nil {
		return cli.FlagError(err)
	}
	net, mech := s.Net, s.Spec.Mech

	// Sample channel utilization per epoch for the sparkline.
	epoch := 100 * sim.Microsecond
	var chanSeries []float64
	prev := net.TakeSnapshot()
	for now := epoch; now <= s.Spec.SimTime; now += epoch {
		s.Kernel.Run(now)
		snap := net.TakeSnapshot()
		chanSeries = append(chanSeries, network.ChannelUtilization(prev, snap))
		prev = snap
	}
	final := net.TakeSnapshot()
	elapsed := final.At

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

	fmt.Printf("\nchannel utilization per epoch: %s\n", viz.Sparkline(chanSeries))
	p := network.IntervalPower(network.Snapshot{}, final)
	fmt.Printf("avg power: %.2f W total (%.2f W/HMC), idle I/O %.0f%%\n",
		p.Total(), p.Total()/float64(net.Topo.N()), 100*p.IdleIO/p.Total())
	return nil
}
