package dram

import (
	"fmt"
	"testing"

	"memnet/internal/sim"
)

// eager is the reference issue path: every access schedules its vault's
// next-issue event, which on an emptied queue fires only to mark the
// vault idle. The model reserves that event's position instead and files
// it only when a request arrives before the kernel passes it.
type eager struct {
	d      *HMCDRAM
	issues []eagerIssue
	noops  uint64 // issue events that found the queue empty
}

type eagerIssue struct {
	e *eager
	v *vault
}

func (a *eagerIssue) Act() { a.e.serviceNext(a.v) }

func newEager(k *sim.Kernel, cfg Config) *eager {
	e := &eager{d: New(k, cfg), issues: make([]eagerIssue, cfg.Vaults)}
	for i := range e.issues {
		e.issues[i] = eagerIssue{e: e, v: &e.d.vaults[i]}
	}
	return e
}

func (e *eager) access(addr uint64, isRead bool, done Completion) bool {
	v := e.d.enqueue(addr, isRead, done)
	if v == nil {
		return false
	}
	if !v.inService {
		e.serviceNext(v)
	}
	return true
}

func (e *eager) serviceNext(v *vault) {
	if len(v.queue) == 0 {
		v.inService = false
		e.noops++
		return
	}
	v.inService = true
	e.d.kernel.ScheduleAction(e.d.serveHead(v), &e.issues[v.idx])
}

// Where an arrival found its vault's reserved issue position.
const (
	arriveBefore     = iota // earlier instant
	arriveAtSeqFirst        // same instant, ahead of the reserved seq
	arriveAtSeqAfter        // same instant, behind it
	arriveAfter             // later instant
	arriveCases
)

type completion struct {
	id int
	at sim.Time
}

type issueRun struct {
	done    []completion
	stats   Stats
	events  uint64 // dispatched, less the eager path's no-op issues
	cases   [arriveCases]int
	drained bool // no event pending when the last access completed
}

// runIssueStream drives one HMCDRAM, through the model's AccessAction or
// the eager reference, with a random read/write stream. Arrivals come
// from events scheduled up front (seqs below every reservation), from
// events scheduled by arrivals and completions (seqs above), and from
// the test between Run(until) calls, so they land before, at and after
// reserved positions on the 1 ns grid the DRAM timings share.
func runIssueStream(cfg Config, seed uint64, reserved bool) issueRun {
	k := sim.NewKernel()
	var d *HMCDRAM
	var e *eager
	access := func(addr uint64, isRead bool, done Completion) bool { return d.AccessAction(addr, isRead, done) }
	if reserved {
		d = New(k, cfg)
	} else {
		e = newEager(k, cfg)
		d, access = e.d, e.access
	}
	rng := sim.NewRNG(seed)
	var r issueRun
	const limit = 4000
	ids, scheduled, accepted := 0, 0, 0
	var arrive func()
	arrive = func() {
		scheduled--
		id := ids
		ids++
		addr := uint64(rng.Intn(512) * cfg.LineBytes)
		isRead := rng.Intn(10) < 6
		if reserved {
			v := &d.vaults[d.VaultFor(addr)]
			if !v.inService && v.issueSeq != 0 {
				now := k.Now()
				switch {
				case now < v.issueAt:
					r.cases[arriveBefore]++
				case now > v.issueAt:
					r.cases[arriveAfter]++
				case k.Passed(v.issueAt, v.issueSeq):
					r.cases[arriveAtSeqAfter]++
				default:
					r.cases[arriveAtSeqFirst]++
				}
			}
		}
		ok := access(addr, isRead, funcDone(func() {
			r.done = append(r.done, completion{id, k.Now()})
			if len(r.done) == accepted && scheduled == 0 && ids >= limit {
				r.drained = k.Pending() == 0
			}
			if ids+scheduled < limit && rng.Intn(2) == 0 {
				scheduled++
				k.After(sim.Duration(rng.Intn(40))*sim.Nanosecond, arrive)
			}
		}))
		if ok {
			accepted++
		}
		if ids+scheduled < limit && rng.Intn(4) == 0 {
			scheduled++
			k.After(sim.Duration(rng.Intn(20))*sim.Nanosecond, arrive)
		}
	}
	for i := 0; i < limit/4; i++ {
		scheduled++
		k.Schedule(sim.Time(rng.Intn(20000))*sim.Nanosecond, arrive)
	}
	for k.Pending() > 0 || ids+scheduled < limit {
		k.Run(k.Now() + sim.Time(1+rng.Intn(30))*sim.Nanosecond)
		if ids+scheduled < limit && rng.Intn(3) == 0 {
			scheduled++
			arrive()
		}
	}
	r.stats = d.Stats()
	r.events = k.Processed()
	if e != nil {
		r.events -= e.noops
	}
	return r
}

// TestReservedIssueMatchesEager checks the reserved next-issue position
// against the eager path it replaces: every access completes at the same
// time and in the same order, the statistics agree, exactly the no-op
// issue events go, and a drained DRAM leaves nothing pending.
func TestReservedIssueMatchesEager(t *testing.T) {
	var cases [arriveCases]int
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Vaults = 2
			want := runIssueStream(cfg, seed, false)
			got := runIssueStream(cfg, seed, true)
			if len(got.done) != len(want.done) {
				t.Fatalf("%d completions, eager path %d", len(got.done), len(want.done))
			}
			for i := range want.done {
				if got.done[i] != want.done[i] {
					t.Fatalf("completion %d = %+v, eager path %+v", i, got.done[i], want.done[i])
				}
			}
			if got.stats != want.stats {
				t.Errorf("stats %+v, eager path %+v", got.stats, want.stats)
			}
			if got.events != want.events {
				t.Errorf("%d events, eager path %d less its no-op issues", got.events, want.events)
			}
			if !got.drained {
				t.Error("events still pending when the last access completed")
			}
			for i, n := range got.cases {
				cases[i] += n
			}
		})
	}
	for i, n := range cases {
		if n == 0 {
			t.Errorf("arrival case %d never occurred: %v", i, cases)
		}
	}
}
