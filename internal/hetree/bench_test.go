package hetree

import (
	"context"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// BenchmarkHETreeFromSource builds the tree over one numeric property of a
// 20k-entity dataset straight from the store's ID-space scan.
func BenchmarkHETreeFromSource(b *testing.B) {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 20_000, NumericProps: 1, CategoryProps: 1, Seed: 7,
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := FromSource(context.Background(), st, gen.Prop("num0"), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if tree.Len() != 20_000 {
			b.Fatalf("tree holds %d items", tree.Len())
		}
	}
}
