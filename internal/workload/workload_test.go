package workload

import (
	"math"
	"testing"
	"testing/quick"

	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

func TestAllProfilesValid(t *testing.T) {
	if len(Profiles) != 14 {
		t.Fatalf("profiles = %d, want 14 (7 HPC + 7 cloud)", len(Profiles))
	}
	hpc, cloud := 0, 0
	for _, p := range Profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		switch p.Class {
		case "HPC":
			hpc++
		case "cloud":
			cloud++
		default:
			t.Errorf("%s: unknown class %q", p.Name, p.Class)
		}
	}
	if hpc != 7 || cloud != 7 {
		t.Fatalf("class split %d/%d, want 7/7", hpc, cloud)
	}
}

func TestAggregateCalibrationMatchesPaper(t *testing.T) {
	// §III-C: the average memory footprint is ~17 GB, so the average
	// small network has ceil(17/4) = 5 modules; Fig. 9's average channel
	// utilization is ~43%.
	var fp, util, modsSmall float64
	for _, p := range Profiles {
		fp += float64(p.FootprintGB)
		util += p.TargetChannelUtil
		modsSmall += float64(p.Modules(4))
	}
	fp /= 14
	util /= 14
	modsSmall /= 14
	if fp < 15 || fp > 19 {
		t.Errorf("avg footprint = %.1f GB, want ~17", fp)
	}
	if util < 0.40 || util > 0.47 {
		t.Errorf("avg target channel util = %.2f, want ~0.43", util)
	}
	if modsSmall < 4.2 || modsSmall > 5.8 {
		t.Errorf("avg small modules = %.1f, want ~5", modsSmall)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mixB")
	if err != nil || p.Name != "mixB" {
		t.Fatalf("ByName(mixB) = %v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestCDFProperties(t *testing.T) {
	for _, p := range Profiles {
		if p.CDFAt(0) != 0 {
			t.Errorf("%s: CDF(0) = %v", p.Name, p.CDFAt(0))
		}
		if got := p.CDFAt(float64(p.FootprintGB)); got != 1 {
			t.Errorf("%s: CDF(footprint) = %v", p.Name, got)
		}
		prev := -1.0
		for gb := 0.0; gb <= float64(p.FootprintGB); gb += 0.5 {
			v := p.CDFAt(gb)
			if v < prev {
				t.Fatalf("%s: CDF not monotone at %v", p.Name, gb)
			}
			prev = v
		}
	}
}

func TestModuleFractionsSumToOne(t *testing.T) {
	for _, p := range Profiles {
		for _, chunk := range []int{1, 4} {
			fr := p.ModuleFractions(chunk)
			if len(fr) != p.Modules(chunk) {
				t.Fatalf("%s: %d fractions for %d modules", p.Name, len(fr), p.Modules(chunk))
			}
			var sum float64
			for _, f := range fr {
				if f < -1e-12 {
					t.Fatalf("%s: negative fraction", p.Name)
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s chunk %d: fractions sum to %v", p.Name, chunk, sum)
			}
		}
	}
}

func TestSamplerMatchesCDF(t *testing.T) {
	p, _ := ByName("mixC")
	s := NewSampler(p, 64)
	rng := sim.NewRNG(123)
	const n = 200000
	counts := make([]int, p.Modules(4))
	for i := 0; i < n; i++ {
		addr := s.Sample(rng)
		if addr%64 != 0 {
			t.Fatal("address not line aligned")
		}
		if addr >= uint64(p.FootprintGB)<<30 {
			t.Fatalf("address %#x beyond footprint", addr)
		}
		counts[addr>>32]++
	}
	want := p.ModuleFractions(4)
	for i, c := range counts {
		got := float64(c) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("module %d: sampled %.3f, want %.3f", i, got, want[i])
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	p, _ := ByName("ua.D")
	s1, s2 := NewSampler(p, 64), NewSampler(p, 64)
	r1, r2 := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 1000; i++ {
		if s1.Sample(r1) != s2.Sample(r2) {
			t.Fatal("sampler not deterministic")
		}
	}
}

func TestValidationCatchesBadProfiles(t *testing.T) {
	base := func() *Profile {
		return &Profile{
			Name: "x", FootprintGB: 4, ReadFraction: 0.5, TargetChannelUtil: 0.5,
			BurstPeriod: sim.Microsecond, BurstDuty: 0.5,
			AccessCDF: []CDFPoint{{4, 1}},
		}
	}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.FootprintGB = 0 },
		func(p *Profile) { p.ReadFraction = 1.5 },
		func(p *Profile) { p.TargetChannelUtil = 0 },
		func(p *Profile) { p.BurstDuty = 0 },
		func(p *Profile) { p.AccessCDF = nil },
		func(p *Profile) { p.AccessCDF = []CDFPoint{{4, 0.9}} },
		func(p *Profile) { p.AccessCDF = []CDFPoint{{2, 0.5}, {1, 0.6}, {4, 1}} },
	}
	for i, mutate := range cases {
		p := base()
		mutate(p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
	if base().Validate() != nil {
		t.Error("valid profile rejected")
	}
}

func TestModulesQuick(t *testing.T) {
	if err := quick.Check(func(fp uint8, chunk uint8) bool {
		f := 1 + int(fp)%64
		c := 1 + int(chunk)%8
		p := &Profile{FootprintGB: f}
		n := p.Modules(c)
		return n*c >= f && (n-1)*c < f
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// buildFrontEnd wires a front end over a real network for integration
// checks.
func buildFrontEnd(t *testing.T, name string, seed uint64) (*sim.Kernel, *network.Network, *FrontEnd) {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	topo, err := topology.Build(topology.Star, p.Modules(4))
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(k, topo, network.DefaultConfig())
	fe, err := NewFrontEnd(k, net, p, DefaultFrontEndConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return k, net, fe
}

func TestFrontEndHitsUtilizationTarget(t *testing.T) {
	k, net, fe := buildFrontEnd(t, "lu.D", 1)
	fe.Start()
	k.Run(50 * sim.Microsecond)
	warm := net.TakeSnapshot()
	k.Run(250 * sim.Microsecond)
	end := net.TakeSnapshot()
	got := network.ChannelUtilization(warm, end)
	want := 0.45
	if got < want*0.7 || got > want*1.35 {
		t.Fatalf("channel utilization = %.2f, want within 70-135%% of %.2f", got, want)
	}
}

func TestFrontEndReadWriteMix(t *testing.T) {
	k, _, fe := buildFrontEnd(t, "cg.D", 2)
	fe.Start()
	k.Run(200 * sim.Microsecond)
	r, w := fe.Issued()
	frac := float64(r) / float64(r+w)
	if math.Abs(frac-0.80) > 0.05 {
		t.Fatalf("read fraction = %.2f, want ~0.80", frac)
	}
}

func TestFrontEndDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		k, _, fe := buildFrontEnd(t, "mixG", 7)
		fe.Start()
		k.Run(100 * sim.Microsecond)
		return fe.Issued()
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", r1, w1, r2, w2)
	}
}

func TestBurstsCreateIdleIntervals(t *testing.T) {
	// sp.D has duty 0.35: the channel must alternate between busy and
	// idle phases, visible as sub-unity utilization of the ON phase.
	k, net, fe := buildFrontEnd(t, "sp.D", 3)
	net.Modules[0].UpReq.AttachMonitors()
	fe.Start()
	k.Run(100 * sim.Microsecond)
	// Count idle gaps > 1 µs on the processor request link via the idle
	// histogram (512 ns bucket).
	ec := net.Modules[0].UpReq.Mon().Peek()
	if ec.IdleOverCount[2] == 0 {
		t.Fatal("no long idle intervals despite 35% burst duty")
	}
}

func TestFrontEndString(t *testing.T) {
	_, _, fe := buildFrontEnd(t, "mixA", 4)
	if fe.String() == "" || fe.Slots() < 2 || fe.TargetRate() <= 0 {
		t.Fatal("front end accessors broken")
	}
}

func TestColdRegionGetsNoTraffic(t *testing.T) {
	// sp.D's CDF is flat between 14 GB and 20 GB: a cold range that must
	// receive (almost) no samples — the modules the paper's management
	// puts into the deepest low-power modes.
	p, _ := ByName("sp.D")
	s := NewSampler(p, 64)
	rng := sim.NewRNG(8)
	cold := 0
	const n = 100000
	for i := 0; i < n; i++ {
		addr := s.Sample(rng)
		gb := float64(addr) / float64(1<<30)
		if gb >= 14.5 && gb < 19.5 {
			cold++
		}
	}
	if frac := float64(cold) / n; frac > 0.002 {
		t.Fatalf("cold region received %.2f%% of traffic", 100*frac)
	}
}
