package core_test

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// Example shows the minimal build → freeze → search flow.
func Example() {
	ref := genome.Random(5_000, rng.New(1))
	lib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 32, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		panic(err)
	}
	lib.Freeze()

	var a core.Answer
	q := core.Query{Patterns: []*genome.Sequence{ref.Slice(1234, 1234+32)}}
	if err := lib.Search(context.Background(), q, &a); err != nil {
		panic(err)
	}
	for _, m := range a.Results[0].Matches {
		fmt.Printf("%s:%d distance=%d\n", lib.Ref(m.Ref).ID, m.Off, m.Distance)
	}
	// Output: chr1:1234 distance=0
}

// ExampleLibrary_Search_approximate demonstrates mutation-tolerant
// search: the approximate encoding finds a pattern carrying three
// substitutions.
func ExampleLibrary_Search_approximate() {
	ref := genome.Random(3_000, rng.New(2))
	lib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 48,
		Approx: true, Capacity: 2, MutTolerance: 5, Seed: 9,
	})
	if err != nil {
		panic(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		panic(err)
	}
	lib.Freeze()

	mutated, _ := genome.SubstituteExactly(ref.Slice(700, 748), 3, rng.New(3))
	var a core.Answer
	if err := lib.Search(context.Background(), core.Query{Patterns: []*genome.Sequence{mutated}}, &a); err != nil {
		panic(err)
	}
	for _, m := range a.Results[0].Matches {
		fmt.Printf("found at %d with %d substitutions\n", m.Off, m.Distance)
	}
	// Output: found at 700 with 3 substitutions
}

// ExampleLibrary_WriteToV3 round-trips a library through its file format.
func ExampleLibrary_WriteToV3() {
	lib, _ := core.NewLibrary(core.Params{Dim: 1024, Window: 16, Seed: 4})
	_ = lib.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(5))})
	lib.Freeze()

	var buf bytes.Buffer
	if _, err := lib.WriteToV3(&buf); err != nil {
		panic(err)
	}
	back, err := core.ReadIndex(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.NumWindows() == lib.NumWindows())
	// Output: true
}

// ExampleModel shows the statistical quality model sizing a library:
// given a dimension, how many windows can one bucket hold?
func ExampleModel() {
	c := core.MaxCapacity(8192, 32, false, 0, 1000, 1e-3, 1e-3)
	m := core.Model{D: 8192, W: 32, C: c}
	fmt.Printf("capacity=%d separable=%v\n", c,
		m.SignalMean(0) > m.Threshold(1e-3, 1000))
	// Output: capacity=85 separable=true
}
