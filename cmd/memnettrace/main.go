// Command memnettrace records, inspects, and replays memory access traces.
//
//	memnettrace record -wl mixB -o mixb.trace -simtime 1ms
//	memnettrace info mixb.trace
//	memnettrace replay -topo star -policy aware -alpha 0.05 mixb.trace
//
// Replay drives the same trace through any network/policy configuration,
// so configurations can be compared under byte-identical traffic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"memnet/internal/cli"
	"memnet/internal/exp"
	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/trace"
)

var errUsage = &cli.Exit{Code: 2, Msg: `usage:
  memnettrace record -wl <workload> -o <file> [-topo t] [-size s] [-simtime d]
  memnettrace info <file>
  memnettrace replay [-topo t] [-size s] [-mech m] [-policy p] [-alpha a] <file>`}

func main() { os.Exit(cli.Status(run(os.Args[1:]))) }

func run(args []string) error {
	if len(args) < 1 {
		return errUsage
	}
	switch args[0] {
	case "record":
		return record(args[1:])
	case "info":
		return info(args[1:])
	case "replay":
		return replay(args[1:])
	}
	return errUsage
}

// record runs the workload on a full-power network — the spec's own
// seeded traffic, as memnetsim would run it — and writes every access
// it injects.
func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wlName := fs.String("wl", "mixB", "workload profile")
	out := fs.String("o", "", "output trace file (required)")
	topoName := fs.String("topo", "star", "topology used while recording")
	sizeName := fs.String("size", "small", "small or big")
	simtime := fs.String("simtime", "400us", "recording window")
	fs.Parse(args)
	if *out == "" {
		return errors.New("record: -o is required")
	}
	spec, err := exp.Axes{Workload: *wlName, Topology: *topoName, Size: *sizeName}.Parse()
	if err != nil {
		return cli.FlagError(err)
	}
	if spec.SimTime, err = cli.PositiveDuration("simtime", *simtime); err != nil {
		return err
	}
	s, err := exp.Build(spec)
	if err != nil {
		return cli.FlagError(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	rec := trace.AttachRecorder(s.Net, w)
	s.Kernel.Run(spec.SimTime)
	if rec.Err() != nil {
		return rec.Err()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of %s over %s to %s\n", w.Count(), spec.Workload.Name, spec.SimTime, *out)
	return nil
}

func info(args []string) error {
	if len(args) != 1 {
		return errUsage
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.Summarize(f)
	if err != nil {
		return err
	}
	fmt.Printf("records:   %d (%d reads, %d writes)\n", s.Records, s.Reads, s.Writes)
	fmt.Printf("span:      %s (first at %s)\n", s.Span, s.FirstAt)
	fmt.Printf("max addr:  %#x (%.1f GB)\n", s.MaxAddr, float64(s.MaxAddr)/(1<<30))
	if s.Span > 0 {
		rate := float64(s.Records) / s.Span.Seconds()
		fmt.Printf("rate:      %.1f M accesses/s\n", rate/1e6)
	}
	return nil
}

// replay drives a recorded trace through the spec's network and power
// manager, sized to the trace's highest address.
func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	topoName := fs.String("topo", "star", "topology")
	sizeName := fs.String("size", "small", "small or big")
	mechName := fs.String("mech", "VWL+ROO", "link power mechanism")
	policyName := fs.String("policy", "aware", "none | unaware | aware | static")
	alpha := fs.Float64("alpha", 0.05, "allowable slowdown factor")
	scale := fs.Float64("timescale", 1.0, "stretch (>1) or compress (<1) inter-arrival times")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errUsage
	}
	spec, err := exp.Axes{Topology: *topoName, Size: *sizeName, Mechanism: *mechName, Policy: *policyName}.Parse()
	if err != nil {
		return cli.FlagError(err)
	}
	spec.Alpha = *alpha
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	records, err := tr.ReadAll()
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return errors.New("replay: empty trace")
	}
	maxAddr := uint64(0)
	for _, r := range records {
		if r.Addr > maxAddr {
			maxAddr = r.Addr
		}
	}
	modules := int(maxAddr/(uint64(spec.Size.ChunkGB())<<30)) + 1

	k := sim.NewKernel()
	net, _, err := exp.BuildNetwork(k, spec, modules)
	if err != nil {
		return cli.FlagError(err)
	}
	player, err := trace.NewPlayer(k, net, records, *scale)
	if err != nil {
		return err
	}
	start := net.TakeSnapshot()
	player.Start()
	span := sim.Duration(float64(records[len(records)-1].At-records[0].At) * *scale)
	k.Run(k.Now() + span + 10*sim.Microsecond)
	end := net.TakeSnapshot()

	p := network.IntervalPower(start, end)
	fmt.Printf("replayed %d accesses over %s on %s/%s (%d modules), %s links, %s policy\n",
		player.Injected(), span, *sizeName, *topoName, modules, *mechName, *policyName)
	fmt.Printf("  avg power:    %.2f W total, %.3f W/HMC\n", p.Total(), p.Total()/float64(modules))
	fmt.Printf("  idle I/O:     %.1f%% of total\n", 100*p.IdleIO/p.Total())
	fmt.Printf("  read latency: %s (avg)\n", network.AvgReadLatency(start, end))
	fmt.Printf("  throughput:   %.1f M accesses/s\n", network.Throughput(start, end)/1e6)
	return nil
}
