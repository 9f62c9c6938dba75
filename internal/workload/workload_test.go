package workload

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

var testCfg = Config{Scale: 0.05, Seed: 7}

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run(testCfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return res
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllOrdering(t *testing.T) {
	ids := []string{}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	want := "T1 T2 T3 F1 F2 F3 F4 F5 F6 F7 F8 F9 F10 F11"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("ordering %q, want %q", got, want)
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	if _, ok := Get("f6"); !ok {
		t.Fatal("lowercase id not found")
	}
	if _, ok := Get("F99"); ok {
		t.Fatal("unknown id found")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		ID: "X1", Title: "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("v", 1.5)
	tab.AddRow(12, 0.25)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X1: demo ==", "long-column", "1.500", "0.25", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {3, "3"}, {1989, "1989"}, {1.5, "1.500"},
		{0.25, "0.25"}, {123456.7, "1.235e+05"},
	} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestConfigScaled(t *testing.T) {
	cfg := Config{Scale: 0.1}
	if got := cfg.scaled(1000, 10); got != 100 {
		t.Fatalf("scaled = %d", got)
	}
	if got := cfg.scaled(50, 10); got != 10 {
		t.Fatalf("floor not applied: %d", got)
	}
	n := Config{Scale: 0.001}.normalized()
	if n.Scale != 0.02 {
		t.Fatalf("scale clamp: %v", n.Scale)
	}
	if n.Seed == 0 {
		t.Fatal("seed not defaulted")
	}
}

func TestT1Datasets(t *testing.T) {
	res := runExp(t, "T1")
	tab := res.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("%d dataset rows", len(tab.Rows))
	}
	// GC-skewed dataset must report elevated GC.
	var skewGC float64
	for i, row := range tab.Rows {
		if row[0] == "gc-skewed" {
			skewGC = cellFloat(t, tab, i, 4)
		}
	}
	if skewGC < 0.6 {
		t.Fatalf("gc-skewed GC = %v", skewGC)
	}
}

func TestF1RecallHighAtLargeD(t *testing.T) {
	res := runExp(t, "F1")
	tab := res.Tables[0]
	last := len(tab.Rows) - 1
	if recall := cellFloat(t, tab, last, 3); recall < 0.98 {
		t.Fatalf("recall at largest D = %v", recall)
	}
	if fpr := cellFloat(t, tab, last, 4); fpr > 0.01 {
		t.Fatalf("filter FPR at largest D = %v", fpr)
	}
	// Capacity grows with dimension.
	if cellFloat(t, tab, 0, 1) >= cellFloat(t, tab, last, 1) {
		t.Fatal("capacity did not grow with D")
	}
}

func TestF2ModelClose(t *testing.T) {
	res := runExp(t, "F2")
	tab := res.Tables[0]
	for i, row := range tab.Rows {
		errPct := cellFloat(t, tab, i, 5)
		limit := 5.0
		if row[0] == "approx" && row[1] != "1" {
			limit = 20.0 // documented overlap drift at C>1
		}
		if errPct > limit {
			t.Fatalf("row %v: model error %v%% exceeds %v%%", row, errPct, limit)
		}
	}
}

func TestF3RecallTracksOracle(t *testing.T) {
	res := runExp(t, "F3")
	tab := res.Tables[0]
	for i := range tab.Rows {
		recall := cellFloat(t, tab, i, 2)
		if recall < 0.9 {
			t.Fatalf("recall at row %d = %v", i, recall)
		}
		if fp := cellFloat(t, tab, i, 4); fp != 0 {
			t.Fatalf("verified false positives: %v", fp)
		}
	}
}

func TestF4StrideShrinksLibrary(t *testing.T) {
	res := runExp(t, "F4")
	tab := res.Tables[0]
	// Rows come in (window, stride) order; within a window group the
	// bucket count must shrink with stride.
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		b1 := cellFloat(t, tab, i, 2)
		b4 := cellFloat(t, tab, i+2, 2)
		if b4 >= b1 {
			t.Fatalf("stride 4 buckets %v not below stride 1 %v", b4, b1)
		}
	}
}

func TestT2BioHDFewerOps(t *testing.T) {
	res := runExp(t, "T2")
	tab := res.Tables[0]
	ops := map[string]float64{}
	for i, row := range tab.Rows {
		ops[row[0]] = cellFloat(t, tab, i, 1)
	}
	if ops["biohd(bucket-probes)"] >= ops["naive"] {
		t.Fatal("bucket probes not below naive comparisons")
	}
	if ops["sellers-dp(k=2)"] <= ops["myers(k=2)"] {
		t.Fatal("DP not above Myers")
	}
}

func TestF5ProducesPositiveThroughput(t *testing.T) {
	res := runExp(t, "F5")
	tab := res.Tables[0]
	for i := range tab.Rows {
		if q := cellFloat(t, tab, i, 1); q <= 0 {
			t.Fatalf("row %d throughput %v", i, q)
		}
	}
}

func TestF6Structure(t *testing.T) {
	res := runExp(t, "F6")
	tab := res.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("%d engines", len(tab.Rows))
	}
	if tab.Rows[0][0] != "biohd-pim" {
		t.Fatalf("first row %v", tab.Rows[0])
	}
	for i := range tab.Rows {
		if l := cellFloat(t, tab, i, 1); l <= 0 {
			t.Fatalf("row %d latency %v", i, l)
		}
	}
}

func TestF8WiderArraysFaster(t *testing.T) {
	res := runExp(t, "F8")
	tab := res.Tables[0]
	var narrow, wide float64
	for i, row := range tab.Rows {
		switch row[0] {
		case "1024x1024":
			narrow = cellFloat(t, tab, i, 3)
		case "1024x2048":
			wide = cellFloat(t, tab, i, 3)
		}
	}
	if wide >= narrow {
		t.Fatalf("wider array %vµs not faster than %vµs", wide, narrow)
	}
}

func TestT3CountsPresent(t *testing.T) {
	res := runExp(t, "T3")
	tab := res.Tables[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("%d op rows", len(tab.Rows))
	}
	counts := map[string]float64{}
	for i, row := range tab.Rows {
		counts[row[0]] = cellFloat(t, tab, i, 3)
	}
	if counts["xnor"] == 0 || counts["popcount"] == 0 || counts["broadcast"] == 0 {
		t.Fatalf("search kernels uncounted: %v", counts)
	}
	if counts["xnor"] != counts["popcount"] {
		t.Fatal("fused xnor/popcount counts diverge")
	}
}

func TestF9PIMLatencyNearFlat(t *testing.T) {
	res := runExp(t, "F9")
	tab := res.Tables[0]
	first := cellFloat(t, tab, 0, 4)
	last := cellFloat(t, tab, len(tab.Rows)-1, 4)
	dbFirst := cellFloat(t, tab, 0, 0)
	dbLast := cellFloat(t, tab, len(tab.Rows)-1, 0)
	growth := last / first
	dbGrowth := dbLast / dbFirst
	// PIM latency growth must be far sublinear in database growth.
	if growth > dbGrowth/4 {
		t.Fatalf("PIM latency grew %vx for %vx database", growth, dbGrowth)
	}
	// GPU latency must grow with the database.
	gpuFirst := cellFloat(t, tab, 0, 5)
	gpuLast := cellFloat(t, tab, len(tab.Rows)-1, 5)
	if gpuLast <= gpuFirst {
		t.Fatal("GPU latency did not grow with database")
	}
	// Recall stays perfect.
	for i := range tab.Rows {
		if r := cellFloat(t, tab, i, 6); r < 0.98 {
			t.Fatalf("recall %v at row %d", r, i)
		}
	}
}

func TestF10Accuracy(t *testing.T) {
	res := runExp(t, "F10")
	tab := res.Tables[0]
	if acc := cellFloat(t, tab, 0, 1); acc < 0.9 {
		t.Fatalf("BioHD classification accuracy %v", acc)
	}
	if acc := cellFloat(t, tab, 0, 2); acc < 0.9 {
		t.Fatalf("seed-extend accuracy %v", acc)
	}
}

func TestF11SealedSmallerButLowerCapacity(t *testing.T) {
	res := runExp(t, "F11")
	tab := res.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	sealedCap := cellFloat(t, tab, 0, 1)
	rawCap := cellFloat(t, tab, 1, 1)
	if rawCap <= sealedCap {
		t.Fatalf("raw capacity %v not above sealed %v", rawCap, sealedCap)
	}
	sealedMem := cellFloat(t, tab, 0, 3)
	rawMem := cellFloat(t, tab, 1, 3)
	if rawMem <= sealedMem {
		t.Fatalf("raw memory %v not above sealed %v (per-bucket 32x, fewer buckets)", rawMem, sealedMem)
	}
	for i := range tab.Rows {
		if r := cellFloat(t, tab, i, 4); r < 0.98 {
			t.Fatalf("row %d recall %v", i, r)
		}
	}
}

func TestRunAllStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	var sb strings.Builder
	if err := RunAll(&sb, testCfg); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1", "F6", "F10"} {
		if !strings.Contains(sb.String(), "== "+id+":") {
			t.Fatalf("output missing %s", id)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{
		ID: "X1", Title: "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"note text"},
	}
	tab.AddRow("v,with,commas", 2)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a,b\n", "\"v,with,commas\",2\n", "# note text"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestResultWriteCSV(t *testing.T) {
	r := &Result{Tables: []*Table{
		{Columns: []string{"x"}},
		{Columns: []string{"y"}},
	}}
	r.Tables[0].AddRow(1)
	r.Tables[1].AddRow(2)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x\n1\n\ny\n2\n") {
		t.Fatalf("multi-table CSV wrong:\n%q", sb.String())
	}
}

// RunAll executes every experiment and streams tables to w, as
// `biohd experiment all` prints them.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range All() {
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("workload: experiment %s: %w", e.ID, err)
		}
		res.Fprint(w)
	}
	return nil
}
