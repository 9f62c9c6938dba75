package lint

import (
	"strings"
	"testing"
)

// fixtureGraph builds the call graph over the fixture module once per
// test (NewCallGraph is cheap at fixture scale and the assertions stay
// independent).
func fixtureGraph(t *testing.T) *CallGraph {
	t.Helper()
	pkgs, err := fixture()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return (&Program{Pkgs: pkgs}).Graph()
}

// mustNode resolves a node by fully qualified name.
func mustNode(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	n := g.NodeByName(name)
	if n == nil {
		t.Fatalf("NodeByName(%q) = nil", name)
	}
	return n
}

// siteTo returns the first call site in from whose callees include a
// node with the given name suffix, or nil.
func siteTo(from *FuncNode, suffix string) *CallSite {
	for i := range from.Calls {
		for _, c := range from.Calls[i].Callees {
			if strings.HasSuffix(c.Name(), suffix) {
				return &from.Calls[i]
			}
		}
	}
	return nil
}

func TestCallGraphDirectCall(t *testing.T) {
	g := fixtureGraph(t)
	probe := mustNode(t, g, "fake/internal/hot.Probe")
	site := siteTo(probe, "hot.fill")
	if site == nil {
		t.Fatal("Probe has no call site targeting fill")
	}
	if site.Kind != "direct" || len(site.Callees) != 1 {
		t.Fatalf("Probe→fill: kind=%q callees=%d, want direct/1", site.Kind, len(site.Callees))
	}
}

func TestCallGraphMethodCall(t *testing.T) {
	g := fixtureGraph(t)
	probe := mustNode(t, g, "fake/internal/hot.Probe")
	site := siteTo(probe, "cache).grow")
	if site == nil {
		t.Fatal("Probe has no call site targeting (*cache).grow")
	}
	if site.Kind != "direct" {
		t.Fatalf("Probe→grow: kind=%q, want direct (concrete method)", site.Kind)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := fixtureGraph(t)
	all := mustNode(t, g, "fake/internal/hot.ScoreAll")
	site := siteTo(all, ".Score")
	if site == nil {
		t.Fatal("ScoreAll has no dispatch site for Score")
	}
	if site.Kind != "interface" {
		t.Fatalf("ScoreAll→Score: kind=%q, want interface", site.Kind)
	}
	var names []string
	for _, c := range site.Callees {
		names = append(names, c.Name())
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "Fancy).Score") || !strings.Contains(joined, "Plain).Score") {
		t.Fatalf("interface dispatch must fan out to Fancy and Plain, got %v", names)
	}
}

func TestCallGraphFunctionValue(t *testing.T) {
	g := fixtureGraph(t)
	disp := mustNode(t, g, "fake/internal/hot.Dispatch")
	site := siteTo(disp, "hot.leaky")
	if site == nil {
		t.Fatal("Dispatch has no indirect site reaching leaky")
	}
	if site.Kind != "indirect" {
		t.Fatalf("Dispatch→leaky: kind=%q, want indirect (address-taken universe)", site.Kind)
	}
}

func TestCallGraphReachableAndChain(t *testing.T) {
	g := fixtureGraph(t)
	probe := mustNode(t, g, "fake/internal/hot.Probe")
	fill := mustNode(t, g, "fake/internal/hot.fill")
	unreach := mustNode(t, g, "fake/internal/hot.Unreachable")

	pred := g.Reachable([]*FuncNode{probe}, nil)
	if _, ok := pred[fill]; !ok {
		t.Fatal("fill must be reachable from Probe")
	}
	if _, ok := pred[unreach]; ok {
		t.Fatal("Unreachable must not be reachable from Probe")
	}
	if got := Chain(pred, fill); got != "Probe → fill" {
		t.Fatalf("Chain = %q, want %q", got, "Probe → fill")
	}

	// Excluded nodes are reachable but act as walk boundaries.
	warm := mustNode(t, g, "fake/internal/hot.Warm")
	initN := mustNode(t, g, "(*fake/internal/hot.cache).init")
	pred = g.Reachable([]*FuncNode{warm}, func(n *FuncNode) bool { return n == initN })
	if _, ok := pred[initN]; !ok {
		t.Fatal("excluded init must still be reported reachable")
	}
}

func TestCallGraphCallers(t *testing.T) {
	g := fixtureGraph(t)
	fill := mustNode(t, g, "fake/internal/hot.fill")
	callers := g.Callers(fill.Fn)
	if len(callers) != 1 || callers[0].Fn.Name() != "Probe" {
		t.Fatalf("Callers(fill) = %v, want [Probe]", callers)
	}
}

// NodeByName returns the node whose fully qualified name matches, or
// nil. Names follow types.Func.FullName: "path/to/pkg.Fn" for
// functions, "(path/to/pkg.T).M" or "(*path/to/pkg.T).M" for methods.
func (g *CallGraph) NodeByName(name string) *FuncNode {
	for _, n := range g.order {
		if n.Name() == name {
			return n
		}
	}
	return nil
}
