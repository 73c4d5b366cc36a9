// Package hetree implements HETree, the hierarchical aggregation model
// behind SynopsViz (Bikakis et al. [25,26] in the survey): a static tree of
// aggregate nodes over a one-dimensional (numeric or temporal) attribute that
// lets a front-end explore any dataset size at a bounded per-screen cost.
//
// Two flavors are provided, following the paper:
//
//   - HETree-C ("content-based"): leaves hold a fixed number of items, so
//     every leaf carries the same weight (equal-frequency partitioning).
//   - HETree-R ("range-based"): leaves span equal value ranges
//     (equal-width partitioning).
//
// The package supports the paper's two scalability mechanisms:
//
//   - Incremental construction (ICO): a tree starts as a bare root; children
//     materialize only when expanded, so exploring k nodes costs O(k·d)
//     materializations instead of building all O(n/ℓ) nodes up front.
//   - Adaptation: the degree and leaf capacity can be changed mid-session;
//     materialized structure is discarded lazily while the sorted data and
//     prefix sums (the expensive part) are reused.
//
// All aggregates are computed in O(1) per node from prefix sums over the
// sorted values.
package hetree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Mode selects the partitioning strategy.
type Mode int

const (
	// ContentBased is HETree-C: equal-count leaves.
	ContentBased Mode = iota
	// RangeBased is HETree-R: equal-width leaves.
	RangeBased
)

func (m Mode) String() string {
	if m == ContentBased {
		return "HETree-C"
	}
	return "HETree-R"
}

// Item is one data object with its 1-D ordering value (a number, or a
// timestamp mapped to Unix seconds) and an opaque reference, typically the
// RDF resource the value belongs to.
type Item struct {
	Value float64
	Ref   any
}

// Node is one aggregate node of the tree. Aggregate fields cover every item
// in the node's interval.
type Node struct {
	// Lo and Hi delimit the node's value interval [Lo, Hi]; for content
	// nodes these are the actual min/max of the contained items.
	Lo, Hi float64
	// Count, Sum, Min, Max aggregate the contained items.
	Count    int
	Sum      float64
	Min, Max float64
	// Depth is the node's distance from the root.
	Depth int

	// loIdx/hiIdx delimit the node's slice of the sorted data.
	loIdx, hiIdx int
	// rLo/rHi is the assigned value range for range-based nodes.
	rLo, rHi float64
	children []*Node
	expanded bool
	leaf     bool
}

// Mean returns the node's mean value (0 when empty).
func (n *Node) Mean() float64 {
	if n.Count == 0 {
		return 0
	}
	return n.Sum / float64(n.Count)
}

// IsLeaf reports whether the node is a leaf of the (possibly unmaterialized)
// tree.
func (n *Node) IsLeaf() bool { return n.leaf }

// Tree is a HETree over a sorted copy of the input items.
type Tree struct {
	mode    Mode
	degree  int
	leafCap int
	data    []Item
	prefix  []float64 // prefix[i] = sum of data[:i].Value
	root    *Node

	// materialized counts nodes created so far — the cost metric for the
	// full-vs-incremental experiment (E5).
	materialized int
}

// Options configure tree construction.
type Options struct {
	// Mode selects HETree-C or HETree-R.
	Mode Mode
	// Degree is the fan-out of internal nodes (default 4).
	Degree int
	// LeafCapacity is the target number of items per leaf for HETree-C, or
	// the target number of leaves' worth of width for HETree-R (default 32).
	LeafCapacity int
	// Incremental, when true, defers all materialization below the root
	// (the paper's ICO strategy). When false the whole tree is built.
	Incremental bool
}

func (o *Options) normalize() {
	if o.Degree < 2 {
		o.Degree = 4
	}
	if o.LeafCapacity < 1 {
		o.LeafCapacity = 32
	}
}

// ErrNoData is returned when constructing a tree over no items.
var ErrNoData = errors.New("hetree: no items")

// New builds a HETree over items, copied and stably sorted by value: items
// with equal values keep their input order, and NaN values sort before
// every number (the cmp.Compare order).
func New(items []Item, opts Options) (*Tree, error) {
	if len(items) == 0 {
		return nil, ErrNoData
	}
	// Sorting compact (value, position) keys is stable by construction and
	// moves 16-byte keys instead of items.
	type key struct {
		value float64
		pos   int
	}
	keys := make([]key, len(items))
	for i, it := range items {
		keys[i] = key{it.Value, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	data := make([]Item, len(items))
	for i, k := range keys {
		data[i] = items[k.pos]
	}
	return newSorted(data, opts), nil
}

// newSorted builds a tree over data, which must be non-empty and already
// in New's order; the tree takes ownership of the slice.
func newSorted(data []Item, opts Options) *Tree {
	opts.normalize()
	prefix := make([]float64, len(data)+1)
	for i, it := range data {
		prefix[i+1] = prefix[i] + it.Value
	}
	t := &Tree{
		mode:    opts.Mode,
		degree:  opts.Degree,
		leafCap: opts.LeafCapacity,
		data:    data,
		prefix:  prefix,
	}
	t.root = t.makeNode(0, len(data), data[0].Value, data[len(data)-1].Value, 0)
	if !opts.Incremental {
		t.expandAll(t.root)
	}
	return t
}

// makeNode materializes one node covering data[lo:hi].
func (t *Tree) makeNode(lo, hi int, rLo, rHi float64, depth int) *Node {
	t.materialized++
	n := &Node{
		Depth: depth,
		loIdx: lo, hiIdx: hi,
		rLo: rLo, rHi: rHi,
	}
	n.Count = hi - lo
	if n.Count > 0 {
		n.Sum = t.prefix[hi] - t.prefix[lo]
		n.Min = t.data[lo].Value
		n.Max = t.data[hi-1].Value
	}
	switch t.mode {
	case ContentBased:
		n.Lo, n.Hi = n.Min, n.Max
		n.leaf = n.Count <= t.leafCap
	default:
		n.Lo, n.Hi = rLo, rHi
		// A range node is a leaf when its width reaches the leaf width.
		total := t.data[len(t.data)-1].Value - t.data[0].Value
		if total <= 0 {
			n.leaf = true
		} else {
			leafWidth := total / float64(t.numRangeLeaves())
			n.leaf = rHi-rLo <= leafWidth*1.0000001 || n.Count <= 1
		}
	}
	return n
}

// numRangeLeaves derives the leaf count for HETree-R from the leaf capacity,
// mirroring HETree-C's granularity.
func (t *Tree) numRangeLeaves() int {
	l := (len(t.data) + t.leafCap - 1) / t.leafCap
	if l < 1 {
		l = 1
	}
	return l
}

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return t.root }

// Mode returns the tree's partitioning mode.
func (t *Tree) Mode() Mode { return t.mode }

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return len(t.data) }

// MaterializedNodes returns how many nodes have been created so far.
func (t *Tree) MaterializedNodes() int { return t.materialized }

// Children returns the node's children, materializing them on first access
// (the ICO step). Leaves return nil.
func (t *Tree) Children(n *Node) []*Node {
	if n.leaf {
		return nil
	}
	if n.expanded {
		return n.children
	}
	n.expanded = true
	switch t.mode {
	case ContentBased:
		n.children = t.splitContent(n)
	default:
		n.children = t.splitRange(n)
	}
	return n.children
}

// splitContent splits a content node into ≤ degree children of near-equal
// leaf counts, aligned to leaf boundaries.
func (t *Tree) splitContent(n *Node) []*Node {
	nLeaves := (n.Count + t.leafCap - 1) / t.leafCap
	if nLeaves <= 1 {
		return nil
	}
	perChild := (nLeaves + t.degree - 1) / t.degree
	var out []*Node
	for lo := n.loIdx; lo < n.hiIdx; {
		hi := lo + perChild*t.leafCap
		if hi > n.hiIdx {
			hi = n.hiIdx
		}
		out = append(out, t.makeNode(lo, hi, 0, 0, n.Depth+1))
		lo = hi
	}
	return out
}

// splitRange splits a range node into degree equal-width children.
func (t *Tree) splitRange(n *Node) []*Node {
	width := (n.rHi - n.rLo) / float64(t.degree)
	if width <= 0 {
		return nil
	}
	var out []*Node
	for i := 0; i < t.degree; i++ {
		lo := n.rLo + float64(i)*width
		hi := lo + width
		last := i == t.degree-1
		if last {
			hi = n.rHi
		}
		// Locate the data slice for [lo, hi) — [lo, hi] for the last child —
		// by binary search on the sorted values.
		loIdx := sort.Search(len(t.data), func(k int) bool { return t.data[k].Value >= lo })
		var hiIdx int
		if last {
			hiIdx = sort.Search(len(t.data), func(k int) bool { return t.data[k].Value > hi })
		} else {
			hiIdx = sort.Search(len(t.data), func(k int) bool { return t.data[k].Value >= hi })
		}
		if loIdx < n.loIdx {
			loIdx = n.loIdx
		}
		if hiIdx > n.hiIdx {
			hiIdx = n.hiIdx
		}
		out = append(out, t.makeNode(loIdx, hiIdx, lo, hi, n.Depth+1))
	}
	return out
}

// expandAll materializes the full subtree below n.
func (t *Tree) expandAll(n *Node) {
	for _, c := range t.Children(n) {
		t.expandAll(c)
	}
}

// Items returns the node's items (slicing the shared sorted data; callers
// must not mutate the result).
func (t *Tree) Items(n *Node) []Item {
	return t.data[n.loIdx:n.hiIdx]
}

// LevelFor returns the shallowest frontier of the tree whose node count does
// not exceed budget (the "squeeze into the pixel budget" operation): it
// walks down from the root, expanding whole levels while they still fit.
func (t *Tree) LevelFor(budget int) []*Node {
	if budget < 1 {
		budget = 1
	}
	frontier := []*Node{t.root}
	for {
		var next []*Node
		done := false
		for _, n := range frontier {
			cs := t.Children(n)
			if cs == nil {
				done = true
				break
			}
			next = append(next, cs...)
		}
		if done || len(next) == 0 || len(next) > budget {
			return frontier
		}
		frontier = next
	}
}

// RangeQuery returns the maximal materia-lizable nodes covering [lo, hi]
// with at most maxNodes nodes: it descends only into nodes that straddle the
// range boundary, returning fully-covered nodes as-is — the drill-down
// primitive of multilevel exploration.
func (t *Tree) RangeQuery(lo, hi float64, maxNodes int) []*Node {
	if maxNodes < 1 {
		maxNodes = 1
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Count == 0 || n.Max < lo || n.Min > hi {
			return
		}
		if (n.Min >= lo && n.Max <= hi) || n.leaf || len(out) >= maxNodes {
			out = append(out, n)
			return
		}
		for _, c := range t.Children(n) {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Adapt changes the tree's degree and leaf capacity, discarding materialized
// structure but reusing the sorted data and prefix sums — the paper's
// "dynamic and efficient adaptation of the hierarchy to the user's
// preferences".
func (t *Tree) Adapt(degree, leafCapacity int) error {
	if degree < 2 {
		return fmt.Errorf("hetree: degree %d < 2", degree)
	}
	if leafCapacity < 1 {
		return fmt.Errorf("hetree: leaf capacity %d < 1", leafCapacity)
	}
	t.degree = degree
	t.leafCap = leafCapacity
	t.materialized = 0
	t.root = t.makeNode(0, len(t.data), t.data[0].Value, t.data[len(t.data)-1].Value, 0)
	return nil
}

// Height returns the height of the fully-expanded tree (computed without
// materializing it, from the leaf count and degree).
func (t *Tree) Height() int {
	leaves := (len(t.data) + t.leafCap - 1) / t.leafCap
	h := 0
	for span := 1; span < leaves; span *= t.degree {
		h++
	}
	return h
}
