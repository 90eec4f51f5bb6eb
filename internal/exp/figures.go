package exp

import (
	"fmt"
	"strings"

	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/link"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Sweep axes shared by the figure generators, in the paper's order.
var (
	Sizes     = []NetworkSize{Small, Big}
	Alphas    = []float64{0.025, 0.05}
	MainMechs = []Mech{MechVWL, MechROO, MechVWLROO}
	SensMechs = []Mech{MechDVFS, MechROO, MechDVFSROO}
)

// profiles returns the workload set figures sweep: Runner.Workloads when
// set (tests use a reduced set), else all 14 paper workloads.
func (r *Runner) profiles() []*workload.Profile {
	if len(r.Workloads) > 0 {
		return r.Workloads
	}
	return workload.Profiles
}

// wlNames lists the swept workloads in figure order.
func (r *Runner) wlNames() []string {
	ps := r.profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// fpSpec builds the full-power spec for one cell of the sweep.
func fpSpec(wl *workload.Profile, topo topology.Kind, size NetworkSize) Spec {
	return Spec{Workload: wl, Topology: topo, Size: size, Mech: MechFP, Policy: core.PolicyNone}
}

// avgOverWorkloads runs f for every swept workload and averages.
func (r *Runner) avgOverWorkloads(f func(wl *workload.Profile) float64) float64 {
	ps := r.profiles()
	var sum float64
	for _, wl := range ps {
		sum += f(wl)
	}
	return sum / float64(len(ps))
}

// TableI prints the DRAM array parameters in use (Table I).
func TableI(r *Runner) string {
	c := dram.DefaultConfig()
	t := NewTable("Table I: HMC DRAM array parameters", "parameter", "value")
	t.Row("Capacity per HMC / vaults per HMC", "4GB / 32")
	t.Row("Vault data rate / IO width / buffer entries",
		fmt.Sprintf("%.0fGbps / x%d / %d", c.BusGbps, c.BusBits, c.QueueDepth))
	t.Row("page policy / line address mapping", "close / interleaved")
	t.Row("tCL/tRCD/tRAS/tRP/tRRD/tWR (ns)",
		fmt.Sprintf("%.0f/%.0f/%.0f/%.0f/%.0f/%.0f",
			c.TCL.Nanoseconds(), c.TRCD.Nanoseconds(), c.TRAS.Nanoseconds(),
			c.TRP.Nanoseconds(), c.TRRD.Nanoseconds(), c.TWR.Nanoseconds()))
	t.Row("nominal read latency", c.NominalReadLatency().String())
	return t.String()
}

// TableII documents the substituted processor front end (Table II).
func TableII(r *Runner) string {
	t := NewTable("Table II: processor model (substituted front end; see DESIGN.md)",
		"parameter", "value")
	t.Row("paper", "16 cores, 3GHz, 2-issue OOO, 64 ROB, 64B lines, 32MB L3")
	t.Row("this repo", "closed-loop limited-MLP issue engine, 16 cores")
	t.Row("issue slots", "calibrated per workload by Little's law to hit")
	t.Row("", "the workload's Fig. 9 channel utilization")
	t.Row("writes", "posted (off the critical path), 2x slot credits")
	for _, wl := range r.profiles() {
		spec := fpSpec(wl, topology.Star, Small)
		res := r.Run(spec)
		t.Row("  slots for "+wl.Name, fmt.Sprintf("%d", res.Slots))
	}
	return t.String()
}

// TableIII prints the mixed workload compositions (Table III).
func TableIII(r *Runner) string {
	t := NewTable("Table III: workload composition", "workload", "class", "composition (substituted profile)")
	for _, wl := range r.profiles() {
		t.Row(wl.Name, wl.Class, wl.Apps)
	}
	return t.String()
}

// Fig4 prints each workload's cumulative access distribution by address
// range, the synthetic counterpart of Fig. 4.
func Fig4(r *Runner) string {
	t := NewTable("Figure 4: cumulative % of memory accesses by address range (GB)",
		append([]string{"GB"}, r.wlNames()...)...)
	for gb := 0; gb <= 40; gb += 4 {
		row := []string{fmt.Sprintf("%d", gb)}
		for _, wl := range r.profiles() {
			row = append(row, pct(wl.CDFAt(float64(gb))))
		}
		t.Row(row...)
	}
	return t.String()
}

// Fig5 prints the average full-power per-HMC power breakdown per topology
// and study size, averaged across workloads (Fig. 5).
func Fig5(r *Runner) string {
	t := NewTable("Figure 5: average power breakdown of an HMC in a full-power network (W)",
		"config", "idleIO", "activeIO", "logicLeak", "logicDyn", "dramLeak", "dramDyn", "total")
	for _, size := range Sizes {
		var avg power.Breakdown
		for _, topo := range topology.Kinds {
			var acc power.Breakdown
			for _, wl := range r.profiles() {
				acc.Add(r.Run(fpSpec(wl, topo, size)).PerHMC)
			}
			acc = acc.Scale(1 / float64(len(r.profiles())))
			avg.Add(acc)
			t.Rowf(fmt.Sprintf("%s:%s", size, topo), "%.2f",
				acc.IdleIO, acc.ActiveIO, acc.LogicLeak, acc.LogicDyn,
				acc.DRAMLeak, acc.DRAMDyn, acc.Total())
		}
		avg = avg.Scale(1 / float64(len(topology.Kinds)))
		t.Rowf(size.String()+":avg", "%.2f",
			avg.IdleIO, avg.ActiveIO, avg.LogicLeak, avg.LogicDyn,
			avg.DRAMLeak, avg.DRAMDyn, avg.Total())
	}
	return t.String()
}

// Fig6 prints the average number of links traversed per memory access.
func Fig6(r *Runner) string {
	cols := []string{"config"}
	cols = append(cols, r.wlNames()...)
	cols = append(cols, "avg")
	t := NewTable("Figure 6: links traversed per memory access", cols...)
	for _, size := range Sizes {
		for _, topo := range topology.Kinds {
			row := []string{fmt.Sprintf("%s:%s", size, topo)}
			var sum float64
			for _, wl := range r.profiles() {
				v := r.Run(fpSpec(wl, topo, size)).LinksPerAccess
				sum += v
				row = append(row, fmt.Sprintf("%.1f", v))
			}
			row = append(row, fmt.Sprintf("%.1f", sum/float64(len(r.profiles()))))
			t.Row(row...)
		}
	}
	return t.String()
}

// Fig8 prints idle I/O power as a fraction of total network power per
// workload under full power.
func Fig8(r *Runner) string {
	cols := []string{"config"}
	cols = append(cols, r.wlNames()...)
	cols = append(cols, "avg")
	t := NewTable("Figure 8: idle I/O power / total network power (full power)", cols...)
	for _, size := range Sizes {
		for _, topo := range topology.Kinds {
			row := []string{fmt.Sprintf("%s:%s", size, topo)}
			var sum float64
			for _, wl := range r.profiles() {
				v := r.Run(fpSpec(wl, topo, size)).IdleIOFraction()
				sum += v
				row = append(row, pct(v))
			}
			row = append(row, pct(sum/float64(len(r.profiles()))))
			t.Row(row...)
		}
	}
	return t.String()
}

// Fig9 prints channel and average link utilization per workload.
func Fig9(r *Runner) string {
	cols := []string{"config"}
	cols = append(cols, r.wlNames()...)
	cols = append(cols, "avg")
	t := NewTable("Figure 9: channel (chan) and average link (link) utilization", cols...)
	for _, kind := range []string{"chan", "link"} {
		for _, size := range Sizes {
			for _, topo := range topology.Kinds {
				row := []string{fmt.Sprintf("%s:%s:%s", kind, size, topo)}
				var sum float64
				for _, wl := range r.profiles() {
					res := r.Run(fpSpec(wl, topo, size))
					v := res.ChannelUtil
					if kind == "link" {
						v = res.LinkUtil
					}
					sum += v
					row = append(row, pct(v))
				}
				row = append(row, pct(sum/float64(len(r.profiles()))))
				t.Row(row...)
			}
		}
	}
	return t.String()
}

// managedSpec builds one managed-run spec.
func managedSpec(wl *workload.Profile, topo topology.Kind, size NetworkSize,
	mech Mech, pol core.PolicyKind, alpha float64) Spec {
	return Spec{Workload: wl, Topology: topo, Size: size, Mech: mech, Policy: pol, Alpha: alpha}
}

// Fig11 prints per-HMC power under network-unaware management (Fig. 11).
func Fig11(r *Runner) string {
	cols := []string{"config", "FP"}
	for _, mech := range MainMechs {
		for _, a := range Alphas {
			cols = append(cols, fmt.Sprintf("%.1f%% %s", 100*a, mech))
		}
	}
	t := NewTable("Figure 11: power per HMC under network-unaware management (W)", cols...)
	for _, size := range Sizes {
		avgRow := make([]float64, len(cols)-1)
		for _, topo := range topology.Kinds {
			vals := []float64{r.avgOverWorkloads(func(wl *workload.Profile) float64 {
				return r.Run(fpSpec(wl, topo, size)).PerHMC.Total()
			})}
			for _, mech := range MainMechs {
				for _, a := range Alphas {
					vals = append(vals, r.avgOverWorkloads(func(wl *workload.Profile) float64 {
						return r.Run(managedSpec(wl, topo, size, mech, core.PolicyUnaware, a)).PerHMC.Total()
					}))
				}
			}
			for i, v := range vals {
				avgRow[i] += v / float64(len(topology.Kinds))
			}
			t.Rowf(fmt.Sprintf("%s:%s", size, topo), "%.2f", vals...)
		}
		t.Rowf(size.String()+":avg", "%.2f", avgRow...)
	}
	return t.String()
}

// degStats returns the average and maximum throughput degradation across
// workloads for one (topo,size,mech,policy,alpha) cell.
func degStats(r *Runner, topo topology.Kind, size NetworkSize, mech Mech,
	pol core.PolicyKind, alpha float64) (avg, max float64) {
	var ds []float64
	for _, wl := range r.profiles() {
		res := r.Run(managedSpec(wl, topo, size, mech, pol, alpha))
		ds = append(ds, r.PerfDegradation(res))
	}
	return stats.Mean(ds), stats.Max(ds)
}

// Fig12 prints average and maximum performance overhead of
// network-unaware management vs full power (Fig. 12).
func Fig12(r *Runner) string {
	t := NewTable("Figure 12: performance degradation of network-unaware management vs full power",
		"config", "alpha", "daisychain", "ternary tree", "star", "DDRx-like", "avg", "max")
	for _, size := range Sizes {
		for _, mech := range MainMechs {
			for _, a := range Alphas {
				row := []string{fmt.Sprintf("%s:%s", size, mech), pct(a)}
				var all, maxAll float64
				for _, topo := range topology.Kinds {
					avg, max := degStats(r, topo, size, mech, core.PolicyUnaware, a)
					row = append(row, pct(avg))
					all += avg / float64(len(topology.Kinds))
					if max > maxAll {
						maxAll = max
					}
				}
				row = append(row, pct(all), pct(maxAll))
				t.Row(row...)
			}
		}
	}
	return t.String()
}

// Fig13 prints the distribution of link hours across VWL modes by link
// utilization, for unaware vs aware management on big networks (Fig. 13).
func Fig13(r *Runner) string {
	var b strings.Builder
	for _, pol := range []core.PolicyKind{core.PolicyUnaware, core.PolicyAware} {
		hist := &stats.LinkHourHist{}
		for _, topo := range topology.Kinds {
			for _, wl := range r.profiles() {
				spec := managedSpec(wl, topo, Big, MechVWL, pol, 0.05)
				spec.CollectLinkHours = true
				hist.Merge(r.Run(spec).Hist)
			}
		}
		fmt.Fprintf(&b, "Figure 13 (%s, big networks, VWL, alpha=5%%): fraction of total link hours\n%s\n",
			pol, hist)
	}
	return b.String()
}

// Fig15 prints the network-wide power reduction of network-aware vs
// network-unaware management (Fig. 15).
func Fig15(r *Runner) string {
	t := NewTable("Figure 15: network-wide power reduction, network-aware vs network-unaware",
		"config", "alpha", "daisychain", "ternary tree", "star", "DDRx-like", "avg")
	for _, size := range Sizes {
		for _, mech := range MainMechs {
			for _, a := range Alphas {
				row := []string{fmt.Sprintf("%s:%s", size, mech), pct(a)}
				var all float64
				for _, topo := range topology.Kinds {
					red := r.avgOverWorkloads(func(wl *workload.Profile) float64 {
						un := r.Run(managedSpec(wl, topo, size, mech, core.PolicyUnaware, a)).Power.Total()
						aw := r.Run(managedSpec(wl, topo, size, mech, core.PolicyAware, a)).Power.Total()
						if un == 0 {
							return 0
						}
						return 1 - aw/un
					})
					row = append(row, pct(red))
					all += red / float64(len(topology.Kinds))
				}
				row = append(row, pct(all))
				t.Row(row...)
			}
		}
	}
	return t.String()
}

// Fig16 prints power reduction vs full power by workload for big networks
// at alpha=5% (Fig. 16).
func Fig16(r *Runner) string {
	cols := []string{"scheme"}
	cols = append(cols, r.wlNames()...)
	cols = append(cols, "avg")
	t := NewTable("Figure 16: network-wide power reduction vs full power (big networks, alpha=5%)", cols...)
	for _, pol := range []core.PolicyKind{core.PolicyUnaware, core.PolicyAware} {
		for _, mech := range MainMechs {
			row := []string{fmt.Sprintf("%s:%s", mech, pol)}
			var sum float64
			for _, wl := range r.profiles() {
				var red float64
				for _, topo := range topology.Kinds {
					fp := r.Run(fpSpec(wl, topo, Big)).Power.Total()
					mg := r.Run(managedSpec(wl, topo, Big, mech, pol, 0.05)).Power.Total()
					if fp > 0 {
						red += (1 - mg/fp) / float64(len(topology.Kinds))
					}
				}
				sum += red
				row = append(row, pct(red))
			}
			row = append(row, pct(sum/float64(len(r.profiles()))))
			t.Row(row...)
		}
	}
	return t.String()
}

// Fig17 prints the average performance overhead of aware vs unaware
// management (left half) and the maximum overhead vs full power (right).
func Fig17(r *Runner) string {
	t := NewTable("Figure 17: performance overhead of network-aware management",
		"config", "alpha", "avg vs unaware", "max vs full power")
	for _, size := range Sizes {
		for _, mech := range MainMechs {
			for _, a := range Alphas {
				var avgDelta, maxFP float64
				for _, topo := range topology.Kinds {
					for _, wl := range r.profiles() {
						aw := r.Run(managedSpec(wl, topo, size, mech, core.PolicyAware, a))
						un := r.Run(managedSpec(wl, topo, size, mech, core.PolicyUnaware, a))
						dAw := r.PerfDegradation(aw)
						dUn := r.PerfDegradation(un)
						avgDelta += (dAw - dUn) / float64(len(topology.Kinds)*len(r.profiles()))
						if dAw > maxFP {
							maxFP = dAw
						}
					}
				}
				t.Row(fmt.Sprintf("%s:%s", size, mech), pct(a), pct(avgDelta), pct(maxFP))
			}
		}
	}
	return t.String()
}

// Fig18 prints the DVFS and 20 ns ROO sensitivity study at alpha=5%:
// power reduction vs full power and performance degradation (Fig. 18).
func Fig18(r *Runner) string {
	t := NewTable("Figure 18: sensitivity (DVFS links, 20ns ROO; alpha=5%)",
		"config", "scheme", "power reduction vs FP", "perf degradation")
	for _, size := range Sizes {
		for _, mech := range SensMechs {
			for _, pol := range []core.PolicyKind{core.PolicyUnaware, core.PolicyAware} {
				var red, deg float64
				for _, topo := range topology.Kinds {
					for _, wl := range r.profiles() {
						spec := managedSpec(wl, topo, size, mech, pol, 0.05)
						spec.Wakeup = link.WakeupSensitivity
						res := r.Run(spec)
						fp := r.FPBaseline(spec)
						if fp.Power.Total() > 0 {
							red += (1 - res.Power.Total()/fp.Power.Total()) /
								float64(len(topology.Kinds)*len(r.profiles()))
						}
						deg += r.PerfDegradation(res) / float64(len(topology.Kinds)*len(r.profiles()))
					}
				}
				name := mech.String()
				if mech.ROO {
					name = strings.Replace(name, "ROO", "ROO20", 1)
				} else if mech.BW == link.MechNone {
					name = "ROO20"
				}
				t.Row(fmt.Sprintf("%s:%s", size, name), pol.String(), pct(red), pct(deg))
			}
		}
	}
	return t.String()
}

// SeedStudy is a robustness extension: the headline cell re-run under five
// different workload seeds, reporting the spread — evidence the fixed-seed
// methodology isn't cherry-picked.
func SeedStudy(r *Runner) string {
	wl, err := workload.ByName("mg.D")
	if err != nil {
		panic(err)
	}
	t := NewTable("Seed robustness (mg.D, big star, VWL+ROO, aware, alpha=5%)",
		"seed", "power saving vs FP", "perf degradation")
	var savings, degs []float64
	for salt := uint64(0); salt < 5; salt++ {
		spec := managedSpec(wl, topology.Star, Big, MechVWLROO, core.PolicyAware, 0.05)
		spec.SeedSalt = salt
		res := r.Run(spec)
		fp := r.FPBaseline(res.Spec)
		saving := 1 - res.Power.Total()/fp.Power.Total()
		deg := r.PerfDegradation(res)
		savings = append(savings, saving)
		degs = append(degs, deg)
		t.Row(fmt.Sprintf("%d", salt), pct(saving), pct(deg))
	}
	t.Row("spread", pct(stats.Max(savings)-minOf(savings)), pct(stats.Max(degs)-minOf(degs)))
	return t.String()
}

// minOf returns the minimum of a non-empty slice.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// StaticStudy reproduces §VII-A: static fat/tapered selection with
// page-interleaved mapping vs network-aware management at alpha=30%, on
// big networks with the VWL model.
func StaticStudy(r *Runner) string {
	var degs, awDegs []float64
	var statPow, awPow, fpPow float64
	n := 0
	for _, topo := range topology.Kinds {
		for _, wl := range r.profiles() {
			stSpec := Spec{Workload: wl, Topology: topo, Size: Big, Mech: MechVWL,
				Policy: core.PolicyStatic, Interleave: true}
			st := r.Run(stSpec)
			aw := r.Run(managedSpec(wl, topo, Big, MechVWL, core.PolicyAware, 0.30))
			fp := r.FPBaseline(stSpec)
			degs = append(degs, r.PerfDegradation(st))
			awDegs = append(awDegs, r.PerfDegradation(aw))
			statPow += st.Power.Total()
			awPow += aw.Power.Total()
			fpPow += fp.Power.Total()
			n++
		}
	}
	t := NewTable("Section VII-A: static fat/tapered+interleave vs network-aware (alpha=30%), big networks, VWL",
		"metric", "static+interleave", "network-aware a=30%")
	t.Row("avg perf overhead", pct(stats.Mean(degs)), pct(stats.Mean(awDegs)))
	t.Row("worst-case perf overhead", pct(stats.Max(degs)), pct(stats.Max(awDegs)))
	t.Row("avg top-quarter worst-case", pct(stats.TopQuartileMean(degs)), pct(stats.TopQuartileMean(awDegs)))
	t.Row("avg network power (W)", watts(statPow/float64(n)), watts(awPow/float64(n)))
	t.Row("power vs static", "-", pct(1-awPow/statPow))
	t.Row("avg full-power power (W)", watts(fpPow/float64(n)), "")
	return t.String()
}

// Summary prints the paper's headline numbers next to the measured ones.
func Summary(r *Runner) string {
	t := NewTable("Headline comparison (paper -> measured)", "metric", "paper", "measured")
	// Idle I/O share of total power at full power.
	for _, size := range Sizes {
		var v float64
		for _, topo := range topology.Kinds {
			v += r.avgOverWorkloads(func(wl *workload.Profile) float64 {
				return r.Run(fpSpec(wl, topo, size)).IdleIOFraction()
			}) / float64(len(topology.Kinds))
		}
		paper := "53%"
		if size == Big {
			paper = "67%"
		}
		t.Row("idle I/O / total power, FP "+size.String(), paper, pct(v))
	}
	// I/O power reduction of unaware vs FP, and aware vs unaware.
	for _, size := range Sizes {
		var unIO, awVsUn float64
		cells := 0
		for _, topo := range topology.Kinds {
			for _, mech := range MainMechs {
				for _, a := range Alphas {
					for _, wl := range r.profiles() {
						fp := r.Run(fpSpec(wl, topo, size)).Power.IO()
						un := r.Run(managedSpec(wl, topo, size, mech, core.PolicyUnaware, a)).Power.IO()
						aw := r.Run(managedSpec(wl, topo, size, mech, core.PolicyAware, a)).Power.IO()
						if fp > 0 {
							unIO += 1 - un/fp
						}
						if un > 0 {
							awVsUn += 1 - aw/un
						}
						cells++
					}
				}
			}
		}
		unIO /= float64(cells)
		awVsUn /= float64(cells)
		paperUn, paperAw := "21%", "17%"
		if size == Big {
			paperUn, paperAw = "32%", "29%"
		}
		t.Row("unaware I/O power reduction, "+size.String(), paperUn, pct(unIO))
		t.Row("aware extra I/O power reduction, "+size.String(), paperAw, pct(awVsUn))
	}
	return t.String()
}

// Fig18 et al. use the sensitivity wakeup; expose the default simulated
// interval in the report header.
func ReportHeader(r *Runner) string {
	return fmt.Sprintf("simulated interval: %s after %s warmup (paper: 10ms; override with -simtime)\n",
		sim.Time(r.SimTime), sim.Time(r.Warmup))
}
