package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// cascadeParams is the geometry of bench's exact HDC workloads: the
// model gives it a 40-word sketch, so every scan below runs both stages.
// approxCascadeParams is that of its approximate one, one window a row
// under a 16-word sketch whose bound every view derives from its own
// calibrated threshold: the rows are stored as their sketches, and the
// scan is stage 1 alone.
var (
	cascadeParams       = Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 42}
	approxCascadeParams = Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 42}
)

// cascadePair builds the same library twice — once as the parameters
// derive it, once with the sketch width forced to the full row, which is
// the full-row scan the cascade must reproduce (or, where the rows are
// sketches, contain) — and applies the same
// life to both: sixteen references in one segment, or (segmented) in
// sixteen, one from Freeze and the rest sealed one per Add; then the
// given references removed; then optionally compacted.
func cascadePair(t *testing.T, p Params, segmented bool, remove []int, compact bool) (lib, full *Library, refs []*genome.Sequence) {
	t.Helper()
	lib, full = mustLibrary(t, p), fullRowTwin(t, p)
	src := rng.New(0xca5cade)
	for i := 0; i < 16; i++ {
		refs = append(refs, genome.Random(150+i, src))
	}
	for _, l := range []*Library{lib, full} {
		for i, ref := range refs {
			if err := l.Add(genome.Record{ID: fmt.Sprintf("ref%d", i), Seq: ref}); err != nil {
				t.Fatal(err)
			}
			if segmented && i == 0 {
				l.Freeze()
				l.SetSealThreshold(1)
			}
		}
		l.Freeze()
		for _, r := range remove {
			if err := l.Remove(r); err != nil {
				t.Fatal(err)
			}
		}
		if compact {
			if _, err := l.Compact(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lib, full, refs
}

// fullRowTwin builds the library of p as the parameters derived it
// before rows were cut to their sketches and with no sketch stage: whole
// rows, every one of them scanned and held to the threshold.
func fullRowTwin(t *testing.T, p Params) *Library {
	l := mustLibrary(t, p)
	l.sketchWords, l.rowWords, l.prefix = p.Dim/64, p.Dim/64, nil
	return l
}

// encodeQuery encodes a window under the library's encoding, whole.
func encodeQuery(l *Library, window *genome.Sequence) *hdc.HV {
	if l.params.Approx {
		return l.enc.EncodeWindowApprox(window, 0)
	}
	return l.enc.EncodeWindowExact(window, 0)
}

// containsAnswer checks a one-stage library's matches against its
// full-row twin's: every match the twin returns is returned, and every
// other one is a window within the tolerance — verify is exact, so the
// candidates stage 2 used to reject can only add true matches.
func containsAnswer(t *testing.T, lib *Library, pat *genome.Sequence, got, want []Match) (extra int) {
	t.Helper()
	seen := make(map[Match]bool, len(got))
	for _, m := range got {
		seen[m] = true
		if d := genome.Mismatches(lib.Ref(m.Ref).Seq, m.Off, pat, m.QueryOff, lib.params.Window, lib.params.Window); d != m.Distance || d > lib.params.MutTolerance {
			t.Fatalf("match %+v is %d substitutions away, tolerance %d", m, d, lib.params.MutTolerance)
		}
	}
	for _, m := range want {
		if !seen[m] {
			t.Fatalf("the full-row twin's match %+v is missing from %+v", m, got)
		}
	}
	return len(got) - len(want)
}

// cascadeQueries mixes windows of every reference (removed ones
// included — their rows stay in the arena until compaction), windows a
// few substitutions away from a member, and random absent windows. An
// exact library gets one substitution, which already makes the window a
// stranger; an approximate one gets 1 to 7, across its threshold.
func cascadeQueries(p Params, refs []*genome.Sequence) []*genome.Sequence {
	src := rng.New(0x9e7)
	var qs []*genome.Sequence
	for i, ref := range refs {
		off := src.Intn(ref.Len() - p.Window)
		member := ref.Slice(off, off+p.Window)
		qs = append(qs, member)
		if muts := 1 + i%7; p.Approx || i%2 == 0 {
			if !p.Approx {
				muts = 1
			}
			mut, _ := genome.SubstituteExactly(member, muts, src)
			qs = append(qs, mut)
		}
		qs = append(qs, genome.Random(p.Window, src))
	}
	return qs
}

// TestCascadeMatchesFullRowScan holds the engaged cascade to the
// full-row scan, in both encodings, across the lives a segment can lead
// and every probe entry point: candidates byte-identical to a naive scan
// of the stored rows (seedScalarProbe), matches and stats identical to
// the twin library that scans whole rows. In approximate mode the rows
// are their sketches and there is no full-row stage, so the answers
// contain the twin's instead: every candidate and match of the twin's is
// returned, and every further match is within the tolerance.
func TestCascadeMatchesFullRowScan(t *testing.T) {
	for _, mode := range []struct {
		prefix   string // of the subtest names; exact mode keeps the bare ones
		params   Params
		words    int
		rowWords int
	}{
		{"", cascadeParams, 40, 128},
		{"approximate, ", approxCascadeParams, 16, 16},
	} {
		for _, tc := range []struct {
			name      string
			segmented bool
			remove    []int
			compact   bool
			reopen    bool
			mode      LoadMode
		}{
			{name: "one segment"},
			{name: "16 segments", segmented: true},
			{name: "tombstoned", segmented: true, remove: []int{2, 9}},
			{name: "after Compact", segmented: true, remove: []int{2, 9}, compact: true},
			{name: "v3 heap reopen", segmented: true, remove: []int{5}, reopen: true, mode: LoadHeap},
			{name: "v3 mmap reopen", segmented: true, remove: []int{5}, reopen: true, mode: MapArena},
		} {
			t.Run(mode.prefix+tc.name, func(t *testing.T) {
				p := mode.params
				lib, full, refs := cascadePair(t, p, tc.segmented, tc.remove, tc.compact)
				if tc.reopen {
					lib = openLib(t, writeV3File(t, lib), tc.mode)
					defer lib.Close()
				}
				if got := lib.NumSegments(); tc.segmented && !tc.compact && got != len(refs) {
					t.Fatalf("%d segments, want %d", got, len(refs))
				}
				if plan := viewSketch(t, lib); plan.Words != mode.words {
					t.Fatalf("sketch plan %+v: want the cascade engaged at %d words", plan, mode.words)
				}
				oneStage := hdcOf(lib.snap.Load()).plan.oneStage
				if oneStage != p.Approx || lib.Describe().RowWords != mode.rowWords {
					t.Fatalf("one stage %v at %d-word rows, want %v at %d", oneStage, lib.Describe().RowWords, p.Approx, mode.rowWords)
				}
				if hdcOf(full.snap.Load()).plan.sketch {
					t.Fatal("the full-row twin runs a sketch stage")
				}
				nB, nW := int64(lib.Describe().Buckets), int64(lib.snap.Load().total) // tombstoned windows keep their metadata
				plane := int64(mode.words * 8)
				if mode.words == mode.rowWords && !lib.Mapped() {
					plane = 0 // the plane holds the rows; a mapped open cuts it from the mapping
				}
				if got, want := lib.MemoryFootprint(), nB*(int64(mode.rowWords*8)+plane)+nW*8; got != want {
					t.Fatalf("footprint %d, want arena + sketch plane + metadata = %d", got, want)
				}

				pats := cascadeQueries(p, refs)
				hvs := make([]*hdc.HV, len(pats))
				for i, pat := range pats {
					hvs[i] = encodeQuery(lib, pat)
				}
				hits := 0
				for i, hv := range hvs {
					want := seedScalarProbe(lib, hv)
					got, err := lib.Probe(hv, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !sameCandidates(got, want) {
						t.Fatalf("query %d: Probe %+v, full-row scan %+v", i, got, want)
					}
					if oneStage {
						twin, err := full.Probe(hv, nil)
						if err != nil {
							t.Fatal(err)
						}
						kept := map[int]bool{}
						for _, c := range got {
							kept[c.Bucket] = true
						}
						for _, c := range twin {
							if !kept[c.Bucket] {
								t.Fatalf("query %d: the full-row twin's candidate %+v is not among %+v", i, c, got)
							}
						}
					}
					hits += len(want)
				}
				if hits == 0 {
					t.Fatal("no query lit a bucket: the comparison is vacuous")
				}
				for _, width := range []int{2, 3, 8} {
					for at := 0; at+width <= len(hvs); at += width {
						got, err := lib.ProbeMulti(hvs[at:at+width], nil)
						if err != nil {
							t.Fatal(err)
						}
						for j := range got {
							if want := seedScalarProbe(lib, hvs[at+j]); !sameCandidates(got[j], want) {
								t.Fatalf("ProbeMulti width %d query %d: %+v, full-row scan %+v", width, at+j, got[j], want)
							}
						}
					}
				}
				matched, extra := 0, 0
				for i, pat := range pats {
					gm, gs, gerr := lib.Lookup(pat)
					wm, ws, werr := full.Lookup(pat)
					if gerr != nil || werr != nil {
						t.Fatal(gerr, werr)
					}
					if oneStage {
						extra += containsAnswer(t, lib, pat, gm, wm)
					} else if gs != ws || len(gm) != len(wm) || (len(wm) > 0 && !reflect.DeepEqual(gm, wm)) {
						t.Fatalf("pattern %d: Lookup %v %+v, full-row twin %v %+v", i, gm, gs, wm, ws)
					}
					matched += len(wm)
				}
				if matched == 0 {
					t.Fatal("no pattern matched: the comparison is vacuous")
				}
				t.Logf("%d matches of the full-row twin's, %d more within the tolerance", matched, extra)
				for at := 0; at < len(pats); at += BlockWidth {
					block := pats[at:min(at+BlockWidth, len(pats))]
					got, want := make([]BatchResult, len(block)), make([]BatchResult, len(block))
					if err := lib.LookupBlock(block, got); err != nil {
						t.Fatal(err)
					}
					if err := full.LookupBlock(block, want); err != nil {
						t.Fatal(err)
					}
					for j := range block {
						if oneStage {
							containsAnswer(t, lib, block[j], got[j].Matches, want[j].Matches)
							continue
						}
						if got[j].Stats != want[j].Stats || len(got[j].Matches) != len(want[j].Matches) ||
							(len(want[j].Matches) > 0 && !reflect.DeepEqual(got[j].Matches, want[j].Matches)) {
							t.Fatalf("block at %d slot %d: %+v, full-row twin %+v", at, j, got[j], want[j])
						}
					}
				}

				c, fc := lib.Counters(), full.Counters()
				if c.SketchRows == 0 || c.SketchSurvivors == 0 || c.SketchSurvivors > c.SketchRows/8 {
					t.Fatalf("sketch counters %d survivors of %d rows: stage 1 is not selective", c.SketchSurvivors, c.SketchRows)
				}
				if fc.SketchRows != 0 || fc.SketchSurvivors != 0 {
					t.Fatalf("full-row twin counted a sketch stage: %+v", fc)
				}
				if c.EarlyAbandons == 0 || fc.EarlyAbandons == 0 {
					t.Fatalf("early abandons %d (cascade) / %d (full row): rows that were not candidates went uncounted", c.EarlyAbandons, fc.EarlyAbandons)
				}
			})
		}
	}
}

// TestConfirmMatchesFullRow pins stage 2 survivor by survivor: every
// row the range kernel passes under a bound must carry its prefix
// distance, and confirm — which reads only the words past the prefix,
// under maxHam less that distance — must make it a candidate exactly
// when its whole row is within maxHam by HammingWords, scored from that
// full distance. The bounds are the view's own, one that passes every
// row (so stage 2 sees them all), and a maxHam equal to a member row's
// full distance, where d₁ + d₂ = maxHam must pass.
func TestConfirmMatchesFullRow(t *testing.T) {
	p := cascadeParams
	lib, _, refs := cascadePair(t, p, true, nil, false)
	sn := hdcOf(lib.snap.Load())
	qb := bitvec.NewQueryBlock(p.Dim / 64)
	pats := cascadeQueries(p, refs)
	atEdge := 0 // candidates at exactly maxHam
	for i, pat := range pats {
		hv := encodeQuery(lib, pat)
		q := hv.Words()
		loose := sn.plan
		loose.sketchBound = p.Dim
		edge := loose
		seg0 := sn.segs[0]
		edge.maxHam = bitvec.HammingWords(seg0.arenaRow(i%seg0.NumBuckets()), q)
		for _, pl := range []scanPlan{sn.plan, loose, edge} {
			for k, seg := range sn.segs {
				qb.Reset(seg.planeWords)
				qb.Add(q)
				for lo := 0; lo < seg.NumBuckets(); {
					lo = qb.ScanPlane(seg.plane, pl.sketchBound, lo, seg.NumBuckets())
					rows, dists := qb.Hits(0)
					var want []Candidate
					for j, r := range rows {
						row := seg.arenaRow(int(r))
						if d1 := bitvec.HammingWords(row[:seg.planeWords], q[:seg.planeWords]); int(dists[j]) != d1 || d1 > pl.sketchBound {
							t.Fatalf("query %d segment %d row %d: kernel distance %d, prefix distance %d, bound %d", i, k, r, dists[j], d1, pl.sketchBound)
						}
						if h := bitvec.HammingWords(row, q); h <= pl.maxHam {
							want = append(want, Candidate{Bucket: sn.offs[k] + int(r), Score: float64(p.Dim - 2*h)})
						}
					}
					got := seg.confirm(nil, q, rows, dists, &pl, sn.offs[k])
					if !sameCandidates(got, want) {
						t.Fatalf("query %d segment %d maxHam %d: confirm %+v, full rows %+v", i, k, pl.maxHam, got, want)
					}
					for _, c := range got {
						if c.Score == float64(p.Dim-2*pl.maxHam) {
							atEdge++
						}
					}
				}
			}
		}
	}
	if atEdge < len(pats) {
		t.Fatalf("%d candidates at exactly maxHam over %d queries: the edge went untested", atEdge, len(pats))
	}
}

// viewSketch returns the cascade of the library's current view: the
// library's sketch width with the bound and predicted survivor ratio
// that view derived, and fails the test if the view scans whole rows.
func viewSketch(t *testing.T, lib *Library) SketchPlan {
	t.Helper()
	pl := hdcOf(lib.snap.Load()).plan
	if !pl.sketch {
		t.Fatalf("the view has no sketch stage: plan %+v at width %d", pl, lib.sketchWords)
	}
	return SketchPlan{Words: lib.sketchWords, Bound: pl.sketchBound, Survive: pl.survive}
}

// TestSketchModelHolds checks the binomial model SketchPlan rests on
// against the encoder and the bundling it describes: over 10⁵ member
// (query, row) pairs the prefix distance has the model's mean and
// standard deviation within 3 % and never exceeds h₁, and the share of
// non-member rows surviving stage 1 is within 2× of FPR₁.
func TestSketchModelHolds(t *testing.T) {
	if raceEnabled {
		t.Skip("a statistical check of 10⁵ encodings; the race detector adds nothing and costs a minute")
	}
	const members = 100_000
	p := cascadeParams
	lib := mustLibrary(t, p)
	ref := genome.Random(members+p.Window-1, rng.New(0x5ca1e))
	if err := lib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	plan := viewSketch(t, lib)

	var dist stats.Welford
	worst := 0
	hv := hdc.NewHV(p.Dim)
	for start := 0; start < members; start++ {
		// Stride 1 from one reference at capacity C: window k is in bucket k/C.
		lib.Encoder().EncodeWindowExactInto(hv, ref, start)
		row := lib.BucketVector(start / p.Capacity).Words()
		d := bitvec.HammingWords(row[:plan.Words], hv.Words()[:plan.Words])
		dist.Add(float64(d))
		worst = max(worst, d)
	}
	n := float64(64 * plan.Words)
	pm := (1 - MajorityCorrelation(p.Capacity)) / 2
	mean, sigma := n*pm, math.Sqrt(n*pm*(1-pm))
	if math.Abs(dist.Mean()-mean) > 0.03*mean || math.Abs(dist.StdDev()-sigma) > 0.03*sigma {
		t.Errorf("member prefix distance %.1f ± %.2f, model %.1f ± %.2f", dist.Mean(), dist.StdDev(), mean, sigma)
	}
	if worst > plan.Bound {
		t.Errorf("a member row at prefix distance %d would be dropped by h1 = %d", worst, plan.Bound)
	}

	src := rng.New(0xab5e17)
	for i := 0; i < 64; i++ {
		if _, err := lib.Probe(lib.Encoder().EncodeWindowExact(genome.Random(p.Window, src), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := lib.Counters()
	observed := float64(c.SketchSurvivors) / float64(c.SketchRows)
	if observed < plan.Survive/2 || observed > 2*plan.Survive {
		t.Errorf("stage 1 passed %.4f of %d non-member rows, model FPR1 %.4f", observed, c.SketchRows, plan.Survive)
	}
	t.Logf("member prefix %.1f ± %.2f (model %.1f ± %.2f), max %d under h1 %d; survivors %.4f vs FPR1 %.4f",
		dist.Mean(), dist.StdDev(), mean, sigma, worst, plan.Bound, observed, plan.Survive)
}

// TestSketchModelHoldsApprox is the approximate twin: the stage-1 bound
// is conditioned on the row, so it has to hold for every pair the
// full-row test accepts, whatever the query is. Over 10⁵ (query, row)
// pairs of a member window carrying 3 to 7 substitutions against its own
// row — at tolerance 2 these straddle the calibrated maxHam — no pair
// that passes the full-row test exceeds h₁ in the prefix, the largest
// prefix distance among them stays three hypergeometric standard
// deviations under h₁ (h₁ sits 8.3 out; the largest of 10⁵ draws is
// expected 4.4 out), their differing dimensions fall in the prefix no
// more often than the bound was sized for, and the share of non-member
// rows surviving stage 1 is within 2× of the view's prediction.
func TestSketchModelHoldsApprox(t *testing.T) {
	if raceEnabled {
		t.Skip("a statistical check of 10⁵ encodings; the race detector adds nothing and costs a minute")
	}
	const pairs = 100_000
	p := approxCascadeParams
	lib := mustLibrary(t, p)
	src := rng.New(0x5ca1e)
	var refs []*genome.Sequence
	for i := 0; i < 8; i++ { // bench's approx_classify_inproc: 8 × 288 bases, one window a row
		refs = append(refs, genome.Random(288, src))
		if err := lib.Add(genome.Record{ID: fmt.Sprint("r", i), Seq: refs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	plan, maxHam := viewSketch(t, lib), hdcOf(lib.snap.Load()).plan.maxHam
	if lib.params.Capacity != 1 || plan.Words != 16 {
		t.Fatalf("capacity %d, plan %+v: want one window a row under a 16-word sketch", lib.params.Capacity, plan)
	}

	hv, acc := hdc.NewHV(p.Dim), hdc.NewAcc(p.Dim)
	passers, worst, prefixSum, rowSum := 0, 0, 0, 0
	for i := 0; i < pairs; i++ {
		b := src.Intn(lib.Describe().Buckets)
		wr := lib.BucketWindows(b)[0]
		member := refs[wr.Ref].Slice(int(wr.Off), int(wr.Off)+p.Window)
		mut, _ := genome.SubstituteExactly(member, 3+i%5, src)
		lib.Encoder().EncodeWindowApproxInto(hv, acc, mut, 0)
		row := lib.BucketVector(b).Words()
		if full := bitvec.HammingWords(row, hv.Words()); full <= maxHam {
			pre := bitvec.HammingWords(row[:plan.Words], hv.Words()[:plan.Words])
			passers++
			worst = max(worst, pre)
			prefixSum, rowSum = prefixSum+pre, rowSum+full
		}
	}
	if passers < pairs/10 || passers > pairs*9/10 {
		t.Fatalf("%d of %d pairs pass the full-row test: the queries do not straddle maxHam = %d", passers, pairs, maxHam)
	}
	n, d := float64(64*plan.Words), float64(p.Dim)
	frac := float64(maxHam) / d
	sigma := math.Sqrt(n * frac * (1 - frac) * (d - n) / (d - 1))
	if float64(worst) > float64(plan.Bound)-3*sigma {
		t.Errorf("a row stage 2 accepts sits at prefix distance %d, within 3σ = %.0f of h1 = %d", worst, 3*sigma, plan.Bound)
	}
	share := float64(prefixSum) / float64(rowSum) * d / n
	if sized := math.Max(lib.sketchShare, 1); share > sized+0.01 {
		t.Errorf("accepted pairs put %.4f of an even share of their differing dimensions in the prefix; h1 was sized for %.4f", share, sized)
	}

	for i := 0; i < 512; i++ {
		lib.Encoder().EncodeWindowApproxInto(hv, acc, genome.Random(p.Window, src), 0)
		if _, err := lib.Probe(hv, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := lib.Counters()
	observed := float64(c.SketchSurvivors) / float64(c.SketchRows)
	if observed < plan.Survive/2 || observed > 2*plan.Survive {
		t.Errorf("stage 1 passed %.2e of %d non-member rows, the view predicts %.2e", observed, c.SketchRows, plan.Survive)
	}
	t.Logf("%d of %d pairs within maxHam %d: prefix max %d under h1 %d (σ %.1f), share %.4f (encoder %.4f); survivors %.2e (%d) vs predicted %.2e",
		passers, pairs, maxHam, worst, plan.Bound, sigma, share, lib.sketchShare, observed, c.SketchSurvivors, plan.Survive)
}

// TestCascadeDeclinedByView builds the approximate library whose
// calibration leaves the prefix nothing to reject: one bucket, tolerance
// W/2, so the threshold is the false-positive bound three sigma over the
// noise and a row at maxHam is a noise row. The planes are cut (the
// width is the library's) but the view scans the arena, and answers as
// the full-row twin does. The bucket holds two windows of capacity 2:
// at one window a row the rows are their sketches and there is no arena
// to decline to.
func TestCascadeDeclinedByView(t *testing.T) {
	p := approxCascadeParams
	p.MutTolerance, p.Capacity = p.Window/2, 2
	lib, full := mustLibrary(t, p), fullRowTwin(t, p)
	member := genome.Random(p.Window+1, rng.New(0xdec11e))
	for _, l := range []*Library{lib, full} {
		if err := l.Add(genome.Record{ID: "one", Seq: member}); err != nil {
			t.Fatal(err)
		}
		l.Freeze()
	}
	sn := hdcOf(lib.snap.Load())
	if lib.sketchWords >= p.Dim/64 || sn.sketchBytes == 0 {
		t.Fatalf("sketch width %d, %d plane bytes: the library has no plane to decline", lib.sketchWords, sn.sketchBytes)
	}
	if pl := sn.plan; pl.sketch || pl.sketchBound != pl.maxHam || pl.survive != 0 {
		t.Fatalf("plan %+v: want the arena scanned under maxHam", pl)
	}
	if info := lib.Describe(); info.SketchWords != lib.sketchWords || info.SketchSurvivorRatio != 0 {
		t.Fatalf("Describe %+v: want the plane's width and no predicted survivor ratio", info)
	}
	src := rng.New(0xa7e9a)
	matched := 0
	for i := 0; i < 64; i++ {
		pat := genome.Random(p.Window, src)
		if i%2 == 0 {
			pat, _ = genome.SubstituteExactly(member, i/2, src)
		}
		hv := encodeQuery(lib, pat)
		got, err := lib.Probe(hv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := seedScalarProbe(lib, hv); !sameCandidates(got, want) {
			t.Fatalf("pattern %d: Probe %+v, full-row scan %+v", i, got, want)
		}
		gm, gs, gerr := lib.Lookup(pat)
		wm, ws, werr := full.Lookup(pat)
		if gerr != nil || werr != nil {
			t.Fatal(gerr, werr)
		}
		if gs != ws || len(gm) != len(wm) || (len(wm) > 0 && !reflect.DeepEqual(gm, wm)) {
			t.Fatalf("pattern %d: Lookup %v %+v, full-row twin %v %+v", i, gm, gs, wm, ws)
		}
		matched += len(wm)
	}
	if matched == 0 {
		t.Fatal("no pattern matched: the comparison is vacuous")
	}
	if c := lib.Counters(); c.SketchRows != 0 || c.SketchSurvivors != 0 {
		t.Fatalf("a view without a sketch stage counted one: %+v", c)
	}
}
