package dram

import (
	"strings"
	"testing"
	"unsafe"

	"memnet/internal/sim"
)

func newDRAM(t *testing.T) (*sim.Kernel, *HMCDRAM) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, DefaultConfig())
}

func TestNominalReadLatency(t *testing.T) {
	c := DefaultConfig()
	// Table I: tRCD + tCL + 8 ns burst = 30 ns, the value §V-A quotes.
	if got := c.NominalReadLatency(); got != 30*sim.Nanosecond {
		t.Fatalf("nominal read latency = %v, want 30ns", got)
	}
	if got := c.BurstTime(); got != 8*sim.Nanosecond {
		t.Fatalf("burst = %v, want 8ns", got)
	}
	if got := c.TRC(); got != 33*sim.Nanosecond {
		t.Fatalf("tRC = %v, want 33ns", got)
	}
}

func TestPeakBandwidth(t *testing.T) {
	c := DefaultConfig()
	// 32 vaults × 32 bits × 2 Gbps = 2048 Gbit/s = 256 GB/s.
	if got := c.PeakBandwidthBytesPerSec(); got != 256e9 {
		t.Fatalf("peak BW = %v, want 256e9", got)
	}
}

func TestUnloadedReadCompletesAtNominalLatency(t *testing.T) {
	k, d := newDRAM(t)
	var done sim.Time = -1
	if !d.Access(0, true, func() { done = k.Now() }) {
		t.Fatal("access rejected")
	}
	k.RunAll()
	if done != 30*sim.Nanosecond {
		t.Fatalf("read completed at %v, want 30ns", done)
	}
	if st := d.Stats(); st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVaultMapping(t *testing.T) {
	_, d := newDRAM(t)
	if d.VaultFor(0) != 0 || d.VaultFor(64) != 1 || d.VaultFor(64*32) != 0 {
		t.Fatal("line-interleaved vault mapping broken")
	}
}

func TestReadsPrioritizedOverWrites(t *testing.T) {
	k, d := newDRAM(t)
	var order []string
	// Fill the vault with writes first, then a read; all to vault 0.
	for i := 0; i < 3; i++ {
		d.Access(0, false, func() { order = append(order, "w") })
	}
	d.Access(0, true, func() { order = append(order, "r") })
	k.RunAll()
	// The first write is already in service; the read must bypass the
	// two queued writes.
	if len(order) != 4 || order[0] != "w" || order[1] != "r" {
		t.Fatalf("completion order = %v, want [w r w w]", order)
	}

	// Interleaved arrivals w1 w2 r1 w3 r2: w1 enters service at once,
	// then the reads complete in arrival order ahead of the queued
	// writes, which keep theirs.
	order = order[:0]
	for _, name := range []string{"w1", "w2", "r1", "w3", "r2"} {
		name := name
		d.Access(0, name[0] == 'r', func() { order = append(order, name) })
	}
	k.RunAll()
	if got, want := strings.Join(order, " "), "w1 r1 r2 w2 w3"; got != want {
		t.Fatalf("interleaved completion order = %s, want %s", got, want)
	}
}

// TestRequestIs16Bytes pins the queued request's size. A module's vault
// queues are 512 requests cut from one slab per cell build, and bench's
// setup_s times those builds, while its star-writes run collects no
// garbage at all, so its resident set grows with every byte a build
// allocates. A per-request read flag would pad the request to 24 bytes
// (reads are known from the vault's read count instead), and so would
// the address, which close page never reads.
func TestRequestIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n != 16 {
		t.Fatalf("request is %d bytes, want 16", n)
	}
}

func TestQueueFullRejects(t *testing.T) {
	k, d := newDRAM(t)
	accepted := 0
	for i := 0; i < 40; i++ {
		if d.Access(0, true, nil) {
			accepted++
		}
	}
	// QueueDepth 16 plus whatever entered service before the queue
	// filled; rejects must be counted.
	if d.Stats().QueueFullRejects == 0 {
		t.Fatal("no rejects recorded")
	}
	if accepted >= 40 {
		t.Fatal("queue never filled")
	}
	k.RunAll()
}

func TestOutstandingReads(t *testing.T) {
	k, d := newDRAM(t)
	d.Access(0, true, nil)
	d.Access(64, true, nil)
	if d.OutstandingReads() != 2 {
		t.Fatalf("outstanding = %d, want 2", d.OutstandingReads())
	}
	k.RunAll()
	if d.OutstandingReads() != 0 {
		t.Fatalf("outstanding after drain = %d", d.OutstandingReads())
	}
}

func TestOnReadStartFires(t *testing.T) {
	k, d := newDRAM(t)
	fires := 0
	d.OnReadStart = func() { fires++ }
	d.Access(0, true, nil)
	d.Access(0, false, nil)
	k.RunAll()
	if fires != 1 {
		t.Fatalf("OnReadStart fired %d times, want 1", fires)
	}
}

func TestVaultParallelism(t *testing.T) {
	k, d := newDRAM(t)
	// Two reads to different vaults complete at the same nominal time;
	// two to the same vault serialize on the bus/tRRD.
	var t1, t2, t3 sim.Time
	d.Access(0, true, func() { t1 = k.Now() })
	d.Access(64, true, func() { t2 = k.Now() })
	d.Access(128*32, true, func() { t3 = k.Now() }) // vault 0 again
	k.RunAll()
	if t1 != 30*sim.Nanosecond || t2 != 30*sim.Nanosecond {
		t.Fatalf("parallel vault reads at %v/%v, want 30ns both", t1, t2)
	}
	if t3 <= t1 {
		t.Fatalf("same-vault read completed at %v, not after %v", t3, t1)
	}
	// Same-vault back-to-back reads are burst-limited: second completes
	// one burst (8 ns) after the first.
	if t3 != 38*sim.Nanosecond {
		t.Fatalf("pipelined same-vault read at %v, want 38ns", t3)
	}
}

func TestClosePageBankOccupancy(t *testing.T) {
	k, d := newDRAM(t)
	cfg := DefaultConfig()
	cfg.Banks = 1
	d = New(k, cfg)
	var t1, t2 sim.Time
	d.Access(0, true, func() { t1 = k.Now() })
	d.Access(128*32, true, func() { t2 = k.Now() }) // same vault, same (only) bank
	k.RunAll()
	// Close page: the single bank is busy tRC (33 ns); the second read
	// activates at 33 ns and completes 30 ns later.
	if t1 != 30*sim.Nanosecond || t2 != 63*sim.Nanosecond {
		t.Fatalf("t1=%v t2=%v, want 30ns/63ns", t1, t2)
	}
}

func TestWriteStats(t *testing.T) {
	k, d := newDRAM(t)
	d.Access(0, false, nil)
	k.RunAll()
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesTransferred != 64 {
		t.Fatalf("bytes = %d, want 64", st.BytesTransferred)
	}
	if st.BusyTime != 8*sim.Nanosecond {
		t.Fatalf("busy = %v, want 8ns", st.BusyTime)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Vaults = 0 },
		func(c *Config) { c.Banks = -1 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.TCL = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config rejected")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Vaults = 0
	New(sim.NewKernel(), cfg)
}

func TestThroughputUnderLoad(t *testing.T) {
	k, d := newDRAM(t)
	// Saturate one vault with a closed loop of reads and check its
	// sustained bandwidth is near the 8 GB/s vault data rate.
	completed := 0
	var issue func()
	issue = func() {
		d.Access(0, true, func() {
			completed++
			issue()
		})
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	k.Run(100 * sim.Microsecond)
	gotBW := float64(completed*64) / (100e-6)
	if gotBW < 6e9 || gotBW > 8.1e9 {
		t.Fatalf("single-vault bandwidth = %.2f GB/s, want ~8", gotBW/1e9)
	}
}

func TestRefreshStallsAccess(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.TREFI = 1000 * sim.Nanosecond
	cfg.TRFC = 100 * sim.Nanosecond
	d := New(k, cfg)
	// Vault 0's refresh phase is tREFI×1/32 = 31.25 ns; its first window
	// is [31.25ns, 131.25ns). An access issued inside it must wait.
	k.Run(40 * sim.Nanosecond)
	var done sim.Time
	d.Access(0, true, func() { done = k.Now() })
	k.RunAll()
	// Activate pushed to window end (131.25 ns rounded to ps grid), then
	// the nominal 30 ns.
	want := cfg.TREFI/32 + cfg.TRFC + 30*sim.Nanosecond
	if done != want {
		t.Fatalf("refresh-stalled read at %v, want %v", done, want)
	}
	if d.Stats().RefreshStalls != 1 {
		t.Fatalf("stalls = %d", d.Stats().RefreshStalls)
	}
}

func TestRefreshDisabled(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.TREFI = 0
	d := New(k, cfg)
	k.Run(40 * sim.Nanosecond)
	var done sim.Time
	d.Access(0, true, func() { done = k.Now() })
	k.RunAll()
	if done != 70*sim.Nanosecond {
		t.Fatalf("read at %v, want 70ns (no refresh)", done)
	}
}

func TestRefreshConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TRFC = cfg.TREFI + 1
	if cfg.Validate() == nil {
		t.Fatal("tRFC > tREFI accepted")
	}
}

// addressStream drives one vault of a fresh HMCDRAM with n accesses whose
// arrival times and read/write mix come from seed; line(i) supplies the
// vault-local line index of access i (its row and column bits). It
// returns each accepted access's completion time, in access order with
// -1 for a rejected one, and the final statistics.
func addressStream(seed uint64, n int, line func(i int) uint64) ([]sim.Time, Stats) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	d := New(k, cfg)
	rng := sim.NewRNG(seed)
	vault := uint64(rng.Intn(cfg.Vaults))
	done := make([]sim.Time, n)
	for i := range done {
		at := sim.Time(rng.Intn(8*n)) * sim.Nanosecond
		isRead := rng.Intn(10) < 6
		addr := (line(i)*uint64(cfg.Vaults) + vault) * uint64(cfg.LineBytes)
		done[i] = -1
		k.Schedule(at, func() { d.Access(addr, isRead, func() { done[i] = k.Now() }) })
	}
	k.RunAll()
	return done, d.Stats()
}

// TestVaultTimingIgnoresAddress pins that close page picks the
// earliest-free bank whatever the address: two same-vault streams that
// differ only in their row and column bits complete at the same times
// with the same statistics.
func TestVaultTimingIgnoresAddress(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		const n = 2000
		lines := sim.NewRNG(seed + 100)
		want, wantStats := addressStream(seed, n, func(int) uint64 { return 0 })
		got, gotStats := addressStream(seed, n, func(int) uint64 { return lines.Uint64() >> 20 })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: access %d completed at %v, %v with every address on line 0", seed, i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Errorf("seed %d: stats %+v, %+v with every address on line 0", seed, gotStats, wantStats)
		}
		if wantStats.QueueFullRejects == 0 || wantStats.Writes == 0 {
			t.Errorf("seed %d: stream never filled the queue or never wrote: %+v", seed, wantStats)
		}
	}
}
