package main

import (
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/sparql"
)

func testDataset(t *testing.T, seed int64) *dataset {
	t.Helper()
	return newDataset(gen.EntityDataset(datasetOptions(seed)))
}

// One seed gives one request sequence: the digest repeats exactly, and
// another seed gives another.
func TestSequenceDigestDeterministic(t *testing.T) {
	d1, d2 := testDataset(t, 1), testDataset(t, 2)
	for _, wl := range workloads {
		a, b := sequenceDigest(wl, 1, d1), sequenceDigest(wl, 1, testDataset(t, 1))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", wl, a, b)
		}
		if c := sequenceDigest(wl, 2, d2); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", wl, a)
		}
	}
}

// The warm-up draws from the workload's distribution but not its timed
// sequence.
func TestWarmupStreamDiffers(t *testing.T) {
	d := testDataset(t, 1)
	for _, wl := range workloads {
		timed, _ := newGenerators(wl, 1, d)
		warm := warmupGenerators(wl, 1, d)
		same := 0
		for i := 0; i < 50; i++ {
			if timed[0].next().path == warm[0].next().path {
				same++
			}
		}
		if same == 50 {
			t.Errorf("%s: warm-up repeats the timed sequence", wl)
		}
	}
}

// Every generated query and update is valid SPARQL.
func TestGeneratedRequestsParse(t *testing.T) {
	d := testDataset(t, 3)
	for _, wl := range workloads {
		readers, writer := newGenerators(wl, 3, d)
		for _, g := range readers {
			for i := 0; i < 500; i++ {
				if r := g.next(); r.query != "" {
					if _, err := sparql.Parse(r.query); err != nil {
						t.Fatalf("%s: %v\n%s", wl, err, r.query)
					}
				}
			}
		}
		if writer == nil {
			continue
		}
		for i := 0; i < 100; i++ {
			r := writer.next()
			if _, err := sparql.ParseUpdate(r.body); err != nil {
				t.Fatalf("%s: %v\n%s", wl, err, r.body)
			}
			if len(r.insert)+len(r.delete) == 0 {
				t.Fatalf("%s: empty update", wl)
			}
		}
	}
}

// A deck deals every value in its proportion within each round.
func TestDeckProportions(t *testing.T) {
	g := newColdGen(1, nil)
	counts := make([]int, len(coldWeights))
	round := 0
	for _, w := range coldWeights {
		round += w
	}
	for i := 0; i < 5*round; i++ {
		counts[g.templates.deal()]++
	}
	for v, w := range coldWeights {
		if counts[v] != 5*w {
			t.Errorf("template %d dealt %d times in 5 rounds, want %d", v, counts[v], 5*w)
		}
	}
}

// A window with fewer than minReads successful reads fails the run.
func TestShortWindowFails(t *testing.T) {
	w := &window{reads: make([]record, minReads)}
	w.reads[0].failed = true
	res := (&measured{w: w}).result()
	if res.Correct || res.Failed != 1 || len(w.failures) != 1 {
		t.Fatalf("short window: correct=%v failed=%d failures=%q", res.Correct, res.Failed, w.failures)
	}
	ok := (&measured{w: &window{reads: make([]record, minReads)}}).result()
	if !ok.Correct || ok.Failed != 0 {
		t.Fatalf("full window: correct=%v failed=%d", ok.Correct, ok.Failed)
	}
}
