package hetree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seq(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Value: float64(i), Ref: i}
	}
	return items
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Options{}); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestRootAggregates(t *testing.T) {
	tr, err := New(seq(100), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Root()
	if r.Count != 100 || r.Min != 0 || r.Max != 99 {
		t.Errorf("root = %+v", r)
	}
	if r.Sum != 4950 || r.Mean() != 49.5 {
		t.Errorf("root sum/mean = %g/%g", r.Sum, r.Mean())
	}
}

func TestContentLeavesEqualCount(t *testing.T) {
	tr, _ := New(seq(64), Options{Mode: ContentBased, Degree: 2, LeafCapacity: 8})
	var leaves []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		cs := tr.Children(n)
		if cs == nil {
			leaves = append(leaves, n)
			return
		}
		for _, c := range cs {
			walk(c)
		}
	}
	walk(tr.Root())
	if len(leaves) != 8 {
		t.Fatalf("leaves = %d, want 8", len(leaves))
	}
	for i, l := range leaves {
		if l.Count != 8 {
			t.Errorf("leaf %d count = %d, want 8", i, l.Count)
		}
	}
}

func TestRangeLeavesEqualWidth(t *testing.T) {
	tr, _ := New(seq(101), Options{Mode: RangeBased, Degree: 2, LeafCapacity: 25})
	// Range [0,100], ~5 leaves worth → leaf width 20 → at depth with width<=20.
	frontier := tr.LevelFor(1 << 20)
	totalCount := 0
	for _, n := range frontier {
		totalCount += n.Count
	}
	if totalCount != 101 {
		t.Errorf("leaf counts sum to %d, want 101", totalCount)
	}
}

// checkInvariants verifies the HETree structural invariants for a subtree:
// children partition the parent's items exactly, aggregates are consistent,
// and values are ordered across content-based siblings.
func checkInvariants(t *testing.T, tr *Tree, n *Node) {
	t.Helper()
	cs := tr.Children(n)
	if cs == nil {
		return
	}
	count, sum := 0, 0.0
	for i, c := range cs {
		count += c.Count
		sum += c.Sum
		if c.Depth != n.Depth+1 {
			t.Errorf("child depth %d, parent %d", c.Depth, n.Depth)
		}
		if tr.Mode() == ContentBased && i > 0 && c.Count > 0 && cs[i-1].Count > 0 {
			if c.Min < cs[i-1].Max {
				t.Errorf("sibling order violated: %g < %g", c.Min, cs[i-1].Max)
			}
		}
		checkInvariants(t, tr, c)
	}
	if count != n.Count {
		t.Errorf("children counts %d != parent %d (depth %d)", count, n.Count, n.Depth)
	}
	if diff := sum - n.Sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("children sums %g != parent %g", sum, n.Sum)
	}
}

func TestInvariantsContent(t *testing.T) {
	tr, _ := New(seq(1000), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 16})
	checkInvariants(t, tr, tr.Root())
}

func TestInvariantsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Value: rng.Float64() * 1000}
	}
	tr, _ := New(items, Options{Mode: RangeBased, Degree: 3, LeafCapacity: 20})
	checkInvariants(t, tr, tr.Root())
}

// Property: both modes conserve items and sums at every level, for random
// data, degrees and capacities.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed int64, d8, l8 uint8, mode8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + int(seed%200+200)%200
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Value: rng.NormFloat64() * 50}
		}
		opts := Options{
			Mode:         Mode(int(mode8) % 2),
			Degree:       int(d8)%6 + 2,
			LeafCapacity: int(l8)%30 + 1,
		}
		tr, err := New(items, opts)
		if err != nil {
			return false
		}
		ok := true
		var walk func(nd *Node)
		walk = func(nd *Node) {
			cs := tr.Children(nd)
			if cs == nil {
				return
			}
			count, sum := 0, 0.0
			for _, c := range cs {
				count += c.Count
				sum += c.Sum
				walk(c)
			}
			if count != nd.Count {
				ok = false
			}
			if diff := sum - nd.Sum; diff > 1e-6 || diff < -1e-6 {
				ok = false
			}
		}
		walk(tr.Root())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalMaterializesLazily(t *testing.T) {
	full, _ := New(seq(10000), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10})
	fullNodes := full.MaterializedNodes()

	inc, _ := New(seq(10000), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10, Incremental: true})
	if inc.MaterializedNodes() != 1 {
		t.Errorf("incremental tree materialized %d nodes at start, want 1", inc.MaterializedNodes())
	}
	// Walk one root-to-leaf path.
	n := inc.Root()
	for {
		cs := inc.Children(n)
		if cs == nil {
			break
		}
		n = cs[0]
	}
	if inc.MaterializedNodes() >= fullNodes/10 {
		t.Errorf("path walk materialized %d of %d full nodes — not lazy enough", inc.MaterializedNodes(), fullNodes)
	}
	// The visited leaf still has correct aggregates.
	if n.Count == 0 || n.Count > 10 {
		t.Errorf("leaf count = %d", n.Count)
	}
}

func TestLevelForBudget(t *testing.T) {
	tr, _ := New(seq(4096), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 4, Incremental: true})
	for _, budget := range []int{1, 4, 16, 64, 256} {
		frontier := tr.LevelFor(budget)
		if len(frontier) > budget {
			t.Errorf("LevelFor(%d) = %d nodes", budget, len(frontier))
		}
		total := 0
		for _, n := range frontier {
			total += n.Count
		}
		if total != 4096 {
			t.Errorf("LevelFor(%d) covers %d items", budget, total)
		}
	}
}

func TestRangeQuery(t *testing.T) {
	tr, _ := New(seq(1000), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10, Incremental: true})
	nodes := tr.RangeQuery(100, 200, 64)
	if len(nodes) == 0 {
		t.Fatal("no nodes returned")
	}
	count := 0
	for _, n := range nodes {
		if n.Max < 100 || n.Min > 200 {
			t.Errorf("node [%g,%g] outside query range", n.Min, n.Max)
		}
		count += n.Count
	}
	// Every item in [100,200] must be covered (boundary nodes may add more).
	if count < 101 {
		t.Errorf("covered %d items, want >= 101", count)
	}
}

func TestAdaptReusesData(t *testing.T) {
	tr, _ := New(seq(1000), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10})
	before := tr.Root().Sum
	if err := tr.Adapt(8, 50); err != nil {
		t.Fatal(err)
	}
	if tr.MaterializedNodes() != 1 {
		t.Errorf("adapt should reset materialization, got %d", tr.MaterializedNodes())
	}
	if tr.Root().Sum != before {
		t.Errorf("adapt changed aggregates: %g != %g", tr.Root().Sum, before)
	}
	cs := tr.Children(tr.Root())
	if len(cs) == 0 || len(cs) > 8 {
		t.Errorf("children after adapt = %d", len(cs))
	}
	if err := tr.Adapt(1, 10); err == nil {
		t.Error("degree 1 accepted")
	}
	if err := tr.Adapt(4, 0); err == nil {
		t.Error("leaf capacity 0 accepted")
	}
}

func TestHeight(t *testing.T) {
	tr, _ := New(seq(1000), Options{Mode: ContentBased, Degree: 10, LeafCapacity: 10})
	// 100 leaves, degree 10 → height 2.
	if h := tr.Height(); h != 2 {
		t.Errorf("Height = %d, want 2", h)
	}
}

func TestDuplicateValues(t *testing.T) {
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Value: 42}
	}
	for _, mode := range []Mode{ContentBased, RangeBased} {
		tr, err := New(items, Options{Mode: mode, Degree: 4, LeafCapacity: 10})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if tr.Root().Count != 100 || tr.Root().Min != 42 || tr.Root().Max != 42 {
			t.Errorf("%v root = %+v", mode, tr.Root())
		}
		checkInvariants(t, tr, tr.Root())
	}
}

func TestItemsAccess(t *testing.T) {
	tr, _ := New(seq(100), Options{Mode: ContentBased, Degree: 4, LeafCapacity: 10})
	items := tr.Items(tr.Root())
	if len(items) != 100 {
		t.Errorf("Items = %d", len(items))
	}
	// Sorted.
	for i := 1; i < len(items); i++ {
		if items[i].Value < items[i-1].Value {
			t.Fatal("items not sorted")
		}
	}
}

func TestModeString(t *testing.T) {
	if ContentBased.String() != "HETree-C" || RangeBased.String() != "HETree-R" {
		t.Error("mode labels wrong")
	}
}

// TestNewStableSortAndNaN pins New's order: by value, equal values in
// input order (with more items than any insertion-sort cutoff, in reverse
// and shuffled input), and NaN before every number.
func TestNewStableSortAndNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Value: float64(rng.Intn(7)), Ref: i}
	}
	items[17].Value = math.NaN()
	items[400].Value = math.NaN()
	tree, err := New(items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.Items(tree.Root())
	if !math.IsNaN(got[0].Value) || got[0].Ref != 17 || !math.IsNaN(got[1].Value) || got[1].Ref != 400 {
		t.Fatalf("first items = %+v %+v, want the NaNs in input order", got[0], got[1])
	}
	for i := 3; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Value > b.Value || (a.Value == b.Value && a.Ref.(int) > b.Ref.(int)) {
			t.Fatalf("items %d,%d = %+v %+v: not stably sorted", i-1, i, a, b)
		}
	}
	if items[17].Ref != 17 || !math.IsNaN(items[17].Value) {
		t.Fatal("New modified its input")
	}
}
