package calib

import (
	"fmt"
	"math"

	"memnet/internal/dram"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// Options configures one calibration pass. The zero value validates the
// shipped model (Table I DRAM config, [12] power model) against the
// embedded reference table, sensitivity sweep included.
type Options struct {
	// Ref is the ground-truth table (nil = the embedded Default).
	Ref *Reference
	// DRAM and Power select the model under test (nil = the published
	// defaults). Perturbing either is how the harness proves to itself
	// that drift is detected — see TestPerturbationDetected.
	DRAM  *dram.Config
	Power *power.Model
	// Jobs is the sensitivity sweep's worker count (0 = GOMAXPROCS). The
	// report is byte-identical at any value.
	Jobs int
	// SimTime and Warmup size the sensitivity operating point
	// (0 = 150us / 40us).
	SimTime, Warmup sim.Duration
	// SkipSensitivity restricts the pass to the static and differential
	// rows — the cheap mode unit tests and the pinning suite use.
	SkipSensitivity bool
}

// RowResult is one reference row's outcome.
type RowResult struct {
	Row Row
	Got float64
	// Err is the relative error against Row.Value (absolute when the
	// published value is 0, where relative error is undefined).
	Err float64
	OK  bool
}

// BandResult is one sensitivity band's outcome.
type BandResult struct {
	Band Band
	// Ys is the measured output at each sweep step (×0.90 … ×1.10).
	Ys         []float64
	Elasticity float64
	OK         bool
}

// Report is a full calibration pass.
type Report struct {
	Rows  []RowResult
	Bands []BandResult
	// Figure is the sensitivity sweep rendered through
	// viz.RenderTimeSeries (one series per band, one tick per step).
	Figure          string
	SimTime, Warmup sim.Duration
	SensSkipped     bool
}

// Pass reports whether every row and band is within its declared range.
func (r *Report) Pass() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	for _, b := range r.Bands {
		if !b.OK {
			return false
		}
	}
	return true
}

// model is the configuration under test, shared by every evaluator.
type model struct {
	dram dram.Config
	pm   power.Model
}

// Evaluate runs a calibration pass: every reference row is measured
// against the model under test, and (unless skipped) every declared
// sensitivity band is swept. A returned error means the harness itself
// could not run — a row outside tolerance is a failed Report, not an
// error.
func Evaluate(opts Options) (*Report, error) {
	ref := opts.Ref
	if ref == nil {
		ref = Default()
	}
	m := &model{dram: dram.DefaultConfig(), pm: power.DefaultModel()}
	if opts.DRAM != nil {
		m.dram = *opts.DRAM
	}
	if opts.Power != nil {
		m.pm = *opts.Power
	}
	if err := m.dram.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{SimTime: opts.SimTime, Warmup: opts.Warmup, SensSkipped: opts.SkipSensitivity}
	if rep.SimTime <= 0 {
		rep.SimTime = DefaultSensSimTime
	}
	if rep.Warmup <= 0 {
		rep.Warmup = DefaultSensWarmup
	}
	for _, row := range ref.Rows {
		eval, ok := evaluators[row.Name]
		if !ok {
			return nil, fmt.Errorf("calib: reference row %q has no evaluator", row.Name)
		}
		got, err := eval(m)
		if err != nil {
			return nil, fmt.Errorf("calib: row %q: %w", row.Name, err)
		}
		rep.Rows = append(rep.Rows, scoreRow(row, got))
	}
	if !opts.SkipSensitivity {
		bands, figure, err := runSensitivity(ref.Bands, m, opts.Jobs, rep.SimTime, rep.Warmup)
		if err != nil {
			return nil, err
		}
		rep.Bands, rep.Figure = bands, figure
	}
	return rep, nil
}

// scoreRow computes the error of got against the published row.
func scoreRow(row Row, got float64) RowResult {
	e := math.Abs(got - row.Value)
	if row.Value != 0 {
		e /= math.Abs(row.Value)
	}
	return RowResult{Row: row, Got: got, Err: e, OK: e <= row.TolRel}
}

// evaluators maps every reference row to the code that measures it from
// the model under test. Static rows read the configuration; differential
// rows run closed forms and tiny deterministic simulations. The set must
// match reference.json exactly — Evaluate fails on a row without an
// evaluator, and TestEvaluatorsMatchReference fails on an evaluator
// without a row.
var evaluators = map[string]func(*model) (float64, error){
	// Static DRAM configuration (Table I).
	"dram.vaults":      func(m *model) (float64, error) { return float64(m.dram.Vaults), nil },
	"dram.banks":       func(m *model) (float64, error) { return float64(m.dram.Banks), nil },
	"dram.queue-depth": func(m *model) (float64, error) { return float64(m.dram.QueueDepth), nil },
	"dram.line-bytes":  func(m *model) (float64, error) { return float64(m.dram.LineBytes), nil },
	"dram.bus-bits":    func(m *model) (float64, error) { return float64(m.dram.BusBits), nil },
	"dram.bus-gbps":    func(m *model) (float64, error) { return m.dram.BusGbps, nil },
	"dram.tCL":         func(m *model) (float64, error) { return ns(m.dram.TCL), nil },
	"dram.tRCD":        func(m *model) (float64, error) { return ns(m.dram.TRCD), nil },
	"dram.tRAS":        func(m *model) (float64, error) { return ns(m.dram.TRAS), nil },
	"dram.tRP":         func(m *model) (float64, error) { return ns(m.dram.TRP), nil },
	"dram.tRRD":        func(m *model) (float64, error) { return ns(m.dram.TRRD), nil },
	"dram.tWR":         func(m *model) (float64, error) { return ns(m.dram.TWR), nil },
	"dram.tREFI":       func(m *model) (float64, error) { return ns(m.dram.TREFI), nil },
	"dram.tRFC":        func(m *model) (float64, error) { return ns(m.dram.TRFC), nil },

	// Static power model ([12] §III-B).
	"power.peak-high": func(m *model) (float64, error) { return m.pm.ParamsForRadix(true).PeakWatts, nil },
	"power.peak-low":  func(m *model) (float64, error) { return m.pm.ParamsForRadix(false).PeakWatts, nil },
	"power.frac-dram": func(m *model) (float64, error) { return m.pm.DRAMFraction, nil },
	"power.frac-logic": func(m *model) (float64, error) {
		return m.pm.LogicFraction, nil
	},
	"power.frac-io":    func(m *model) (float64, error) { return m.pm.IOFraction, nil },
	"power.idle-dram":  func(m *model) (float64, error) { return m.pm.DRAMIdleFraction, nil },
	"power.idle-logic": func(m *model) (float64, error) { return m.pm.LogicIdleFraction, nil },
	"power.off-link":   func(m *model) (float64, error) { return power.OffLinkFraction, nil },
	"link.off-power":   func(m *model) (float64, error) { return link.OffPowerFraction, nil },
	"power.link-watts-high": func(m *model) (float64, error) {
		return m.pm.ParamsForRadix(true).LinkFullWatts(), nil
	},
	"power.link-watts-low": func(m *model) (float64, error) {
		return m.pm.ParamsForRadix(false).LinkFullWatts(), nil
	},

	// Static link constants (§III-B, §IV-A).
	"link.lane-gbps":      func(m *model) (float64, error) { return link.LaneRateGbps, nil },
	"link.lanes":          func(m *model) (float64, error) { return link.LanesPerLink, nil },
	"link.buffer-entries": func(m *model) (float64, error) { return link.BufferEntries, nil },
	"link.flit-time":      func(m *model) (float64, error) { return ns(link.FlitTimeFull), nil },
	"link.serdes":         func(m *model) (float64, error) { return ns(link.SERDESBase), nil },
	"link.router-hop":     func(m *model) (float64, error) { return ns(link.RouterLatency()), nil },
	"link.wakeup":         func(m *model) (float64, error) { return ns(link.WakeupDefault), nil },

	// Differential ground truth: closed forms of the config under test.
	"dram.burst":     func(m *model) (float64, error) { return ns(m.dram.BurstTime()), nil },
	"eq1.read-floor": func(m *model) (float64, error) { return ns(m.dram.NominalReadLatency()), nil },
	"dram.peak-bw":   func(m *model) (float64, error) { return m.dram.PeakBandwidthBytesPerSec() / 1e9, nil },

	// Differential ground truth: tiny deterministic simulations.
	"sim.read-latency-d1": func(m *model) (float64, error) { return measureReadLatency(m, 1) },
	"sim.read-latency-d2": func(m *model) (float64, error) { return measureReadLatency(m, 2) },
	"sim.read-latency-d4": func(m *model) (float64, error) { return measureReadLatency(m, 4) },
	"idle.watts-high": func(m *model) (float64, error) {
		return measureIdleWatts(m, topology.TernaryTree)
	},
	"idle.watts-low": func(m *model) (float64, error) {
		return measureIdleWatts(m, topology.DaisyChain)
	},
	"roo.residency-ratio": measureResidencyRatio,
}

// ns converts a simulated duration to float nanoseconds.
func ns(d sim.Duration) float64 { return sim.Time(d).Nanoseconds() }

// netFor builds a network of n modules under the model under test.
func netFor(m *model, kind topology.Kind, n int, roo bool) (*sim.Kernel, *network.Network, error) {
	k := sim.NewKernel()
	topo, err := topology.Build(kind, n)
	if err != nil {
		return nil, nil, err
	}
	cfg := network.DefaultConfig()
	cfg.DRAM = m.dram
	pm := m.pm
	cfg.Power = &pm
	cfg.ROO = roo
	return k, network.New(k, topo, cfg), nil
}

// measureReadLatency injects a single read to the far module of a
// depth-module daisy chain at t=0 and returns its measured end-to-end
// latency in nanoseconds. With no competing traffic the result must equal
// PredictReadLatency to the picosecond.
func measureReadLatency(m *model, depth int) (float64, error) {
	k, net, err := netFor(m, topology.DaisyChain, depth, false)
	if err != nil {
		return 0, err
	}
	done := sim.Time(-1)
	var kind packet.Kind
	net.OnReadComplete = func(p *packet.Packet) { done, kind = k.Now(), p.Kind }
	net.InjectRead(uint64(depth-1)*net.Cfg.ChunkBytes, 0)
	k.RunAll()
	if done < 0 {
		return 0, fmt.Errorf("read to depth-%d module never completed", depth)
	}
	if kind != packet.ReadResp {
		return 0, fmt.Errorf("read to depth-%d module completed as %v", depth, kind)
	}
	return ns(sim.Duration(done)), nil
}

// idleWindow is the zero-traffic integration interval. Any positive value
// measures the same floor; 10us keeps the refresh-free invariant trivial
// (refresh is analytic and adds no events either way).
const idleWindow = 10 * sim.Microsecond

// measureIdleWatts integrates a single idle module (high radix under
// TernaryTree, low under DaisyChain) for idleWindow and returns the
// average total power.
func measureIdleWatts(m *model, kind topology.Kind) (float64, error) {
	k, net, err := netFor(m, kind, 1, false)
	if err != nil {
		return 0, err
	}
	s0 := net.TakeSnapshot()
	k.Run(sim.Time(idleWindow))
	s1 := net.TakeSnapshot()
	return network.IntervalPower(s0, s1).Total(), nil
}

// measureResidencyRatio cross-checks the two independent I/O energy
// views on an ROO run with sparse traffic: the link's own idle+active
// integration against the state-residency vector exported via
// link.StateTimes (on and waking at full watts, off at the 1%
// floor). The ratio must be 1 up to floating-point accumulation order.
func measureResidencyRatio(m *model) (float64, error) {
	k, net, err := netFor(m, topology.DaisyChain, 2, true)
	if err != nil {
		return 0, err
	}
	net.OnReadComplete = func(*packet.Packet) {}
	// Sparse injections: every 2us gap clears the 2048ns full-mode ROO
	// threshold, so links cycle on -> off -> waking -> on repeatedly.
	for i := 0; i < 8; i++ {
		k.Run(sim.Time(i) * 2 * sim.Microsecond)
		net.InjectRead(uint64(i%2)*net.Cfg.ChunkBytes+uint64(i*m.dram.LineBytes), 0)
	}
	k.RunAll()
	end := k.Now() + sim.Time(sim.Microsecond)
	k.Run(end)
	snap := net.TakeSnapshot()
	accounted := snap.Energy.IdleIO + snap.Energy.ActiveIO
	var predicted float64
	for i, mod := range net.Modules {
		full := mod.Params.LinkFullWatts()
		for _, l := range []*link.Link{net.Links[2*i], net.Links[2*i+1]} {
			st := l.StateTimes(end)
			on := st[link.StateOn] + st[link.StateWaking]
			predicted += full*sim.Time(on).Seconds() +
				full*link.OffPowerFraction*sim.Time(st[link.StateOff]).Seconds()
		}
	}
	if predicted == 0 {
		return 0, fmt.Errorf("residency integral is zero")
	}
	return accounted / predicted, nil
}
