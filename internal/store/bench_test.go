package store

import (
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// ingestBatch builds n distinct triples over a realistic shape: many
// subjects, few predicates, a mid-sized object vocabulary.
func ingestBatch(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := 0; i < n; i++ {
		out[i] = rdf.T(
			rdf.IRI(fmt.Sprintf("http://e/s%d", i/8)),
			rdf.IRI(fmt.Sprintf("http://e/p%d", i%16)),
			rdf.IRI(fmt.Sprintf("http://e/o%d", i)),
		)
	}
	return out
}

const ingestN = 100_000

// BenchmarkAddBatch is the bulk write path: one lock, one sort, one
// generation bump for the whole batch.
func BenchmarkAddBatch(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if _, err := st.AddBatch(triples); err != nil {
			b.Fatal(err)
		}
		if st.Len() != ingestN {
			b.Fatalf("Len = %d", st.Len())
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkAddAll goes through the batch wrapper — it must track
// BenchmarkAddBatch, since AddAll is AddBatch.
func BenchmarkAddAll(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if err := st.AddAll(triples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkAddSequential is the old write path — one lock acquisition and
// one delta duplicate-scan per triple — kept as the baseline the batch path
// is measured against.
func BenchmarkAddSequential(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		for _, t := range triples {
			if err := st.Add(t); err != nil {
				b.Fatal(err)
			}
		}
		if st.Len() != ingestN {
			b.Fatalf("Len = %d", st.Len())
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkSnapshotWrite serializes a 100k-triple store.
func BenchmarkSnapshotWrite(b *testing.B) {
	st := New()
	if _, err := st.AddBatch(ingestBatch(ingestN)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.WriteSnapshot(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkPlanAfterWrite is what one write costs the next query's planner:
// a 30-triple AddBatch into a 200k-triple store, then the cardinality
// table the planner reads.
func BenchmarkPlanAfterWrite(b *testing.B) {
	st := New()
	if _, err := st.AddBatch(ingestBatch(200_000)); err != nil {
		b.Fatal(err)
	}
	batch := make([]rdf.Triple, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			k := i*len(batch) + j
			batch[j] = rdf.T(
				rdf.IRI(fmt.Sprintf("http://e/s%d", k%25_000)),
				rdf.IRI(fmt.Sprintf("http://e/p%d", k%16)),
				rdf.IRI(fmt.Sprintf("http://e/w%d", k)),
			)
		}
		if _, err := st.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
		if len(st.Cardinalities()) != 16 {
			b.Fatal("cardinality table lost a predicate")
		}
	}
}
