package pim

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

func TestDeviceParamsValidate(t *testing.T) {
	if err := DefaultDeviceParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDeviceParams()
	bad.XnorNs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero latency accepted")
	}
}

func TestChipConfigValidate(t *testing.T) {
	if err := DefaultChipConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*ChipConfig){
		"rows":   func(c *ChipConfig) { c.ArrayRows = 0 },
		"cols":   func(c *ChipConfig) { c.ArrayCols = 100 },
		"arrays": func(c *ChipConfig) { c.NumArrays = 0 },
	} {
		cfg := DefaultChipConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: bad config accepted", name)
		}
	}
	if bits := DefaultChipConfig().MemoryBits(); bits != 1024*1024*4096 {
		t.Fatalf("MemoryBits = %d", bits)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(DefaultDeviceParams())
	l.Charge(OpXnor, 10)
	l.Charge(OpPopcount, 10)
	if l.Count(OpXnor) != 10 || l.Count(OpPopcount) != 10 {
		t.Fatal("counts wrong")
	}
	wantNs := 10*1.5 + 10*4.2
	if math.Abs(l.BusyNs()-wantNs) > 1e-9 {
		t.Fatalf("busy %v, want %v", l.BusyNs(), wantNs)
	}
	wantPj := 10*0.9 + 10*1.9
	if math.Abs(l.EnergyPj()-wantPj) > 1e-9 {
		t.Fatalf("energy %v, want %v", l.EnergyPj(), wantPj)
	}
	if c := l.Cost(); c.LatencyNs != l.BusyNs() || c.EnergyPj != l.EnergyPj() || c.Counts[OpXnor] != 10 {
		t.Fatalf("Cost() = %+v disagrees with the ledger", c)
	}
}

func TestLedgerNegativeChargePanics(t *testing.T) {
	l := NewLedger(DefaultDeviceParams())
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	l.Charge(OpXnor, -1)
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpRowRead: "row-read", OpRowWrite: "row-write", OpXnor: "xnor",
		OpPopcount: "popcount", OpShift: "shift", OpBroadcast: "broadcast",
		OpCompare: "compare",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestArrayReadWrite(t *testing.T) {
	arr, err := NewArray(8, 128, DefaultDeviceParams())
	if err != nil {
		t.Fatal(err)
	}
	row := []uint64{0xdeadbeef, 0x12345678}
	arr.LoadRowBuf(row)
	arr.WriteRow(3)
	// The row holds what was written: matched against it, all 128
	// columns agree; against zeros, only its clear bits do.
	if pc := arr.XnorPopcount(3); pc != 128 {
		t.Fatalf("written row matches the row buffer on %d of 128 columns", pc)
	}
	arr.LoadRowBuf([]uint64{0, 0})
	if pc, ones := arr.XnorPopcount(3), bits.OnesCount64(row[0])+bits.OnesCount64(row[1]); pc != 128-ones {
		t.Fatalf("written row matches zeros on %d columns, want %d", pc, 128-ones)
	}
	if arr.Ledger().Count(OpRowWrite) != 1 || arr.Ledger().Count(OpBroadcast) != 2 {
		t.Fatal("ledger not charged")
	}
}

func TestArrayGeometryErrors(t *testing.T) {
	if _, err := NewArray(0, 128, DefaultDeviceParams()); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewArray(8, 100, DefaultDeviceParams()); err == nil {
		t.Fatal("unaligned cols accepted")
	}
}

func TestArrayXnorPopcount(t *testing.T) {
	arr, err := NewArray(4, 64, DefaultDeviceParams())
	if err != nil {
		t.Fatal(err)
	}
	arr.LoadRowBuf([]uint64{0xff})
	arr.WriteRow(0)
	arr.LoadRowBuf([]uint64{0xff}) // identical: all 64 bits agree
	if pc := arr.XnorPopcount(0); pc != 64 {
		t.Fatalf("identical rows popcount %d", pc)
	}
	arr.LoadRowBuf([]uint64{0x00}) // low byte disagrees
	if pc := arr.XnorPopcount(0); pc != 56 {
		t.Fatalf("8-bit-différent popcount %d", pc)
	}
}

// buildLib returns a frozen sealed library over nRefs random references.
func buildLib(t *testing.T, dim, window, nRefs, refLen int, seed uint64) *core.Library {
	t.Helper()
	lib, err := core.NewLibrary(core.Params{Dim: dim, Window: window, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 99)
	for i := 0; i < nRefs; i++ {
		if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(refLen, src)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	return lib
}

func TestEngineRejectsBadLibraries(t *testing.T) {
	cfg := DefaultChipConfig()
	lib, err := core.NewLibrary(core.Params{Dim: 1024, Window: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(cfg, lib); err == nil {
		t.Fatal("unfrozen library accepted")
	}
}

func TestEngineTooSmallChip(t *testing.T) {
	lib := buildLib(t, 8192, 32, 1, 2000, 4)
	cfg := DefaultChipConfig()
	cfg.NumArrays = 1
	cfg.ArrayRows = 8 // one bucket per array
	if _, err := NewEngine(cfg, lib); err == nil {
		t.Fatal("overflowing library accepted")
	}
}

func TestEngineSearchMatchesSoftware(t *testing.T) {
	lib := buildLib(t, 8192, 32, 2, 3000, 5)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(6)
	for trial := 0; trial < 20; trial++ {
		var q *genome.Sequence
		if trial%2 == 0 { // planted pattern
			ref := lib.Ref(trial % 2).Seq
			off := src.Intn(ref.Len() - 32)
			q = ref.Slice(off, off+32)
		} else {
			q = genome.Random(32, src)
		}
		hv := lib.Encoder().EncodeWindowExact(q, 0)
		want, err := lib.Probe(hv, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Search(hv)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: PIM %d candidates vs software %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Bucket != want[i].Bucket || got[i].Score != want[i].Score {
				t.Fatalf("trial %d: candidate %d differs: %+v vs %+v",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestEngineSearchDimensionMismatch(t *testing.T) {
	lib := buildLib(t, 1024, 32, 1, 500, 7)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	other := buildLib(t, 2048, 32, 1, 500, 8)
	hv := other.Encoder().EncodeWindowExact(genome.Random(32, rng.New(9)), 0)
	if _, _, err := eng.Search(hv); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestEngineCostsPlausible(t *testing.T) {
	lib := buildLib(t, 8192, 32, 1, 3000, 10)
	cfg := DefaultChipConfig()
	eng, err := NewEngine(cfg, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Build cost: every bucket row written once plus its broadcast.
	rows := int64(lib.Describe().Buckets * eng.RowsPerBucket())
	if got := eng.BuildCost().Counts[OpRowWrite]; got != rows {
		t.Fatalf("build row writes %d, want %d", got, rows)
	}
	hv := lib.Encoder().EncodeWindowExact(genome.Random(32, rng.New(11)), 0)
	_, cost, err := eng.Search(hv)
	if err != nil {
		t.Fatal(err)
	}
	// One fused XNOR+popcount per bucket row across the chip.
	if cost.Counts[OpXnor] != rows || cost.Counts[OpPopcount] != rows {
		t.Fatalf("search xnor/popcount = %d/%d, want %d",
			cost.Counts[OpXnor], cost.Counts[OpPopcount], rows)
	}
	if cost.Counts[OpCompare] != int64(lib.Describe().Buckets) {
		t.Fatalf("compares %d, want %d", cost.Counts[OpCompare], lib.Describe().Buckets)
	}
	if cost.LatencyNs <= 0 || cost.EnergyPj <= 0 {
		t.Fatal("zero cost")
	}
	// Latency must reflect per-array parallelism: far below the serial sum.
	serialNs := float64(rows)*(cfg.Device.XnorNs+cfg.Device.PopcountNs) +
		float64(lib.Describe().Buckets)*cfg.Device.CompareNs
	if eng.ArraysUsed() > 1 && cost.LatencyNs >= serialNs {
		t.Fatalf("latency %v not parallel (serial would be %v)", cost.LatencyNs, serialNs)
	}
}

func TestEngineParallelScaling(t *testing.T) {
	// Halving buckets-per-array (smaller arrays) increases parallelism:
	// per-query latency must not increase.
	lib := buildLib(t, 2048, 32, 1, 4000, 12)
	hv := lib.Encoder().EncodeWindowExact(genome.Random(32, rng.New(13)), 0)
	var prevLatency = math.Inf(1)
	for _, rows := range []int{512, 128, 32} {
		cfg := DefaultChipConfig()
		cfg.ArrayRows = rows
		cfg.NumArrays = 1 << 16
		eng, err := NewEngine(cfg, lib)
		if err != nil {
			t.Fatal(err)
		}
		_, cost, err := eng.Search(hv)
		if err != nil {
			t.Fatal(err)
		}
		if cost.LatencyNs > prevLatency+1e-9 {
			t.Fatalf("rows=%d: latency %v grew from %v", rows, cost.LatencyNs, prevLatency)
		}
		prevLatency = cost.LatencyNs
	}
}

func TestEncodeCost(t *testing.T) {
	lib := buildLib(t, 2048, 32, 1, 500, 14)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	exact := eng.EncodeCost(false, 32)
	approx := eng.EncodeCost(true, 32)
	if exact.LatencyNs <= 0 || approx.LatencyNs <= 0 {
		t.Fatal("zero encode cost")
	}
	if approx.Counts[OpRowWrite] == 0 {
		t.Fatal("approx encode seals nothing")
	}
	if exact.Counts[OpXnor] == 0 {
		t.Fatal("exact encode binds nothing")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{LatencyNs: 10, EnergyPj: 5}
	a.Counts[OpXnor] = 3
	b := Cost{LatencyNs: 2, EnergyPj: 1}
	b.Counts[OpXnor] = 4
	a.Add(b)
	if a.LatencyNs != 12 || a.EnergyPj != 6 || a.Counts[OpXnor] != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
	c := Cost{LatencyNs: 2e6}
	if c.LatencyMs() != 2 {
		t.Fatal("LatencyMs conversion wrong")
	}
}

func TestBusContentionPenalty(t *testing.T) {
	lib := buildLib(t, 8192, 32, 1, 40_000, 15)
	hv := lib.Encoder().EncodeWindowExact(lib.Ref(0).Seq, 100)

	multicast := DefaultChipConfig()
	multicast.ArrayRows = 64 // force many arrays
	multicast.NumArrays = 1 << 16
	serial := multicast
	serial.Multicast = false
	serial.ArraysPerBank = 16

	engM, err := NewEngine(multicast, lib)
	if err != nil {
		t.Fatal(err)
	}
	engS, err := NewEngine(serial, lib)
	if err != nil {
		t.Fatal(err)
	}
	if engM.ArraysUsed() < 16 {
		t.Fatalf("only %d arrays used; contention test needs more", engM.ArraysUsed())
	}
	candsM, costM, err := engM.Search(hv)
	if err != nil {
		t.Fatal(err)
	}
	candsS, costS, err := engS.Search(hv)
	if err != nil {
		t.Fatal(err)
	}
	// Functionally identical.
	if len(candsM) != len(candsS) {
		t.Fatalf("contention changed results: %d vs %d", len(candsM), len(candsS))
	}
	// Serial bus costs exactly (bankWidth-1)·rows·broadcastNs more.
	want := float64(16-1) * float64(engS.RowsPerBucket()) *
		serial.Device.BroadcastNs
	got := costS.LatencyNs - costM.LatencyNs
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("bus penalty %v ns, want %v", got, want)
	}
}

func TestChipConfigBankValidation(t *testing.T) {
	cfg := DefaultChipConfig()
	cfg.ArraysPerBank = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative bank width accepted")
	}
	cfg.ArraysPerBank = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default bank width rejected: %v", err)
	}
}

func TestMappingReport(t *testing.T) {
	lib := buildLib(t, 8192, 32, 1, 3000, 16)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.ArraysUsed != eng.ArraysUsed() || rep.RowsPerBucket != eng.RowsPerBucket() {
		t.Fatalf("report disagrees with engine: %+v", rep)
	}
	wantBits := int64(lib.Describe().Buckets) * int64(rep.RowsPerBucket) * 1024
	if rep.UsedBits != wantBits {
		t.Fatalf("used bits %d, want %d", rep.UsedBits, wantBits)
	}
	if rep.RowOccupancy <= 0 || rep.RowOccupancy > 1 {
		t.Fatalf("row occupancy %v", rep.RowOccupancy)
	}
	if rep.ChipOccupancy <= 0 || rep.ChipOccupancy >= rep.RowOccupancy {
		t.Fatalf("chip occupancy %v vs row %v", rep.ChipOccupancy, rep.RowOccupancy)
	}
	if rep.BroadcastWidth != 64 {
		t.Fatalf("broadcast width %d", rep.BroadcastWidth)
	}
}
