package lodviz

import (
	"github.com/lodviz/lodviz/internal/gen"
)

// Synthetic dataset generation. The surveyed systems demonstrate on live
// LOD endpoints (DBpedia, LinkedGeoData); lodviz is offline by design, so
// these deterministic generators substitute datasets with the same shape
// (internal/gen documents each generator).

// GenerateScaleFree returns a dataset whose link structure follows a
// Barabási–Albert preferential-attachment process (n entities, m edges per
// new entity) — the hub-dominated topology of real LOD graphs.
func GenerateScaleFree(n, m int, seed int64) (*Dataset, error) {
	return FromTriples(gen.ScaleFreeGraph(n, m, seed))
}

// EntityOptions configures GenerateEntities.
type EntityOptions = gen.EntityOptions

// GenerateEntities returns a DBpedia-like entity-attribute dataset.
func GenerateEntities(opts EntityOptions) (*Dataset, error) {
	return FromTriples(gen.EntityDataset(opts))
}

// GenerateDataCube returns an RDF Data Cube of regions × years population
// observations.
func GenerateDataCube(regions, years int, seed int64) (*Dataset, error) {
	return FromTriples(gen.DataCube(regions, years, seed))
}

// GenerateGeoPoints returns a dataset of n geolocated places clustered
// around c hotspots.
func GenerateGeoPoints(n, c int, seed int64) (*Dataset, error) {
	return FromTriples(gen.GeoPoints(n, c, seed))
}

// GenProp returns the IRI of a generated property (e.g. "num0", "cat0",
// "linksTo") for querying generated datasets.
func GenProp(name string) IRI { return gen.Prop(name) }

// GenRes returns the IRI of a generated resource, e.g. GenRes("node", 0).
func GenRes(kind string, i int) IRI { return gen.Res(kind, i) }
