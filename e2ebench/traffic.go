package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// request is one generated HTTP request plus what the checks need to know
// about it.
type request struct {
	// route names the endpoint in per-route metrics ("sparql",
	// "facets_stream", "sparql_update", ...).
	route  string
	path   string // path and query string
	body   string // SPARQL update, POSTed; empty for GET
	stream bool   // NDJSON response
	// query is the SPARQL text of /sparql and /sparql/stream reads;
	// ordered reports that its ORDER BY fixes the row order.
	query   string
	ordered bool
	// insert and delete are the triples an update adds or removes.
	insert, delete []rdf.Triple
	// The exploration parameters, for the direct replay: facet filters
	// (predicate IRI and category value), the neighborhood node, the
	// hierarchy property and budget, the keyword text.
	filters []facetFilter
	node    string
	prop    string
	budget  int
	text    string
}

type facetFilter struct {
	pred  string
	value int
}

// generator produces one client's request sequence. The sequence depends
// only on the seed, the workload and the client's index.
type generator interface {
	next() request
}

// workload names.
const (
	wlSPARQLCold     = "sparql-cold"
	wlExploreSession = "explore-session"
	wlWriteMixed     = "write-mixed"
)

var workloads = []string{wlSPARQLCold, wlExploreSession, wlWriteMixed}

// writeRate is the open-loop writer's schedule on write-mixed, in updates
// per second.
const writeRate = 10

// clientSeed derives a generator's seed from the run seed, the request
// stream (the workload, or its warm-up) and the client's index.
func clientSeed(seed int64, stream string, client int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, client)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// newGenerators returns the closed-loop read generators of a workload, one per
// client, and writer its open-loop update generator (nil when the
// workload does not write).
func newGenerators(workload string, seed int64, d *dataset) (readers []generator, writer generator) {
	return generators(workload, workload, seed, d)
}

// warmupGenerators returns read generators that draw from the workload's
// distribution but not its timed sequence: the warm-up before the window
// fills the response cache with the hot set and lets the heap reach its
// working size, without consuming requests of the timed sequence.
func warmupGenerators(workload string, seed int64, d *dataset) []generator {
	readers, _ := generators(workload, workload+"/warm-up", seed, d)
	return readers
}

// warmupRequests is how many requests each reader sends before the window.
var warmupRequests = map[string]int{wlSPARQLCold: 150, wlExploreSession: 1200, wlWriteMixed: 150}

func generators(workload, stream string, seed int64, d *dataset) (readers []generator, writer generator) {
	switch workload {
	case wlSPARQLCold:
		for c := 0; c < 2; c++ {
			readers = append(readers, newColdGen(clientSeed(seed, stream, c), d))
		}
	case wlExploreSession:
		for c := 0; c < 2; c++ {
			readers = append(readers, newSessionGen(clientSeed(seed, stream, c), seed, d, exploreMix))
		}
	case wlWriteMixed:
		readers = append(readers, newSessionGen(clientSeed(seed, stream, 0), seed, d, writeMixedReadMix))
		writer = newWriterGen(clientSeed(seed, stream, 1), d)
	}
	return readers, writer
}

// digestLen is how many requests of each generator the sequence digest
// covers.
const digestLen = 2000

// sequenceDigest fingerprints a workload's request sequences: the first
// digestLen requests of every generator, hashed in order.
func sequenceDigest(workload string, seed int64, d *dataset) string {
	readers, writer := newGenerators(workload, seed, d)
	if writer != nil {
		readers = append(readers, writer)
	}
	h := sha256.New()
	for i, g := range readers {
		fmt.Fprintf(h, "generator %d\n", i)
		for n := 0; n < digestLen; n++ {
			r := g.next()
			fmt.Fprintf(h, "%s %d %s\n%s\n", r.route, len(r.body), r.path, r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sparqlGet(query string, ordered bool) request {
	return request{route: "sparql", path: "/sparql?query=" + url.QueryEscape(query), query: query, ordered: ordered}
}

func iri(s string) string { return "<" + s + ">" }

func catValue(v int) string { return fmt.Sprintf("\"category-%d\"", v) }

// deck deals values in shuffled rounds that each hold every value in its
// stated proportion, so a timed window sees the mix it was designed for
// rather than a binomial draw of it.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for v, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, v)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Query templates of sparql-cold: the eight kinds of analyst query the
// workload is defined by. They are dealt with equal weight. No measured
// share for an analyst exploring one dataset was at hand; the query-log
// studies of public endpoints (LSQ, Saleem et al., ISWC 2015; Bonifati,
// Martens and Timm, VLDB J. 2020) were not consulted for numbers, so the
// uniform mix is an unverified assumption (see METRICS.md).
const (
	tLabel = iota
	tConjunction
	tChain
	tFilter
	tOptional
	tGroupBy
	tOrderBy
	tDescribe
)

var coldWeights = []int{
	tLabel: 1, tConjunction: 1, tChain: 1, tFilter: 1,
	tOptional: 1, tGroupBy: 1, tOrderBy: 1, tDescribe: 1,
}

// filterBins stratifies the FILTER template's selectivity.
const filterBins = 8

// coldGen is a sparql-cold client: the templates above, with parameters
// drawn so that almost every request is distinct (the response cache
// cannot help) and results range from one row to about 10k rows.
type coldGen struct {
	rng                   *rand.Rand
	d                     *dataset
	templates, classes    *deck
	filterShare, labelled *deck
	chainFrom             *deck // 0 = from an entity, 1 = from a category
}

func newColdGen(seed int64, d *dataset) *coldGen {
	rng := rand.New(rand.NewSource(seed))
	share := make([]int, filterBins)
	for i := range share {
		share[i] = 1
	}
	return &coldGen{
		rng: rng, d: d,
		templates:   newDeck(rng, coldWeights...),
		classes:     newDeck(rng, 1, 1, 1, 1, 1),
		filterShare: newDeck(rng, share...),
		labelled:    newDeck(rng, 1, 1),
		chainFrom:   newDeck(rng, 1, 1),
	}
}

func (g *coldGen) next() request {
	rng := g.rng
	cat := func() (string, string) {
		i, j := rng.Intn(3), rng.Intn(2)
		if j >= i {
			j++
		}
		return prop(fmt.Sprintf("cat%d", i)), prop(fmt.Sprintf("cat%d", j))
	}
	switch g.templates.deal() {
	case tLabel: // one row
		e := rng.Intn(numEntities)
		return sparqlGet(fmt.Sprintf("SELECT ?e WHERE { ?e %s %q }", iri(string(rdf.RDFSLabel)), g.d.label[e]), false)
	case tConjunction: // class plus two categories
		p1, p2 := cat()
		q := fmt.Sprintf("SELECT ?e WHERE { ?e %s %s . ?e %s %s . ?e %s %s",
			iri(string(rdf.RDFType)), iri(classIRI(g.classes.deal())),
			iri(p1), catValue(rng.Intn(numCategories)), iri(p2), catValue(rng.Intn(numCategories)))
		if g.labelled.deal() == 0 {
			q = strings.Replace(q, "SELECT ?e", "SELECT ?e ?l", 1) + fmt.Sprintf(" . ?e %s ?l", iri(string(rdf.RDFSLabel)))
		}
		return sparqlGet(q+" }", false)
	case tChain: // two rel0 hops from an entity, or rel0 from a category into another
		if g.chainFrom.deal() == 0 {
			return sparqlGet(fmt.Sprintf("SELECT ?a ?b ?l WHERE { %s %s ?a . ?a %s ?b . ?b %s ?l }",
				iri(entityIRI(rng.Intn(numEntities))), iri(prop("rel0")), iri(prop("rel0")), iri(string(rdf.RDFSLabel))), false)
		}
		p1, p2 := cat()
		return sparqlGet(fmt.Sprintf("SELECT ?e ?o ?l WHERE { ?e %s %s . ?e %s ?o . ?o %s %s . ?o %s ?l }",
			iri(p1), catValue(rng.Intn(numCategories)), iri(prop("rel0")),
			iri(p2), catValue(rng.Intn(numCategories)), iri(string(rdf.RDFSLabel))), false)
	case tFilter: // numeric range: 1 to ~10k rows (log-uniform share of entities)
		share := math.Pow(10, -4.3+4*(float64(g.filterShare.deal())+rng.Float64())/filterBins)
		q1 := rng.Float64() * (1 - share)
		lo, hi := expQuantile(q1, 100), expQuantile(q1+share, 100)
		return sparqlGet(fmt.Sprintf("SELECT ?e ?v WHERE { ?e %s ?v . FILTER(?v >= %.4f && ?v < %.4f) }",
			iri(prop("num0")), lo, hi), false)
	case tOptional: // the linked entity when it is in a category
		p1, p2 := cat()
		return sparqlGet(fmt.Sprintf("SELECT ?e ?l ?o WHERE { ?e %s %s . ?e %s %s . ?e %s %s . ?e %s ?l . OPTIONAL { ?e %s ?o . ?o %s %s } }",
			iri(string(rdf.RDFType)), iri(classIRI(g.classes.deal())), iri(p1), catValue(rng.Intn(numCategories)),
			iri(p2), catValue(rng.Intn(numCategories)), iri(string(rdf.RDFSLabel)),
			iri(prop("rel1")), iri(prop(fmt.Sprintf("cat%d", rng.Intn(3)))), catValue(rng.Intn(numCategories))), false)
	case tGroupBy: // aggregates per category value
		p1, _ := cat()
		return sparqlGet(fmt.Sprintf("SELECT ?c (COUNT(?e) AS ?n) (AVG(?v) AS ?m) WHERE { ?e %s ?c . ?e %s ?v . FILTER(?v > %.4f) } GROUP BY ?c",
			iri(p1), iri(prop("num1")), expQuantile(rng.Float64()*0.9, 200)), false)
	case tOrderBy: // top-k
		p1, _ := cat()
		return sparqlGet(fmt.Sprintf("SELECT ?e ?v WHERE { ?e %s %s . ?e %s ?v } ORDER BY DESC(?v) ?e LIMIT %d",
			iri(p1), catValue(rng.Intn(numCategories)), iri(prop("num0")), 10+rng.Intn(490)), true)
	default: // describe an entity
		return sparqlGet(fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", iri(entityIRI(rng.Intn(numEntities)))), false)
	}
}

// expQuantile is the q-quantile of an exponential distribution with the
// given mean (the generator's numeric properties are exponential).
func expQuantile(q, mean float64) float64 { return -mean * math.Log(1-q) }

// readMix weighs the kinds of browsing session.
type readMix struct {
	facets, neighborhood, overview, keyword, canned, short int
	// streamEvery: one in streamEvery facet, stats and canned SPARQL steps
	// goes to the streaming endpoint instead.
	streamEvery int
	// wide allows the dataset-wide views: /stats, /search, /complete and
	// the facet views whose warming recomputes the root view.
	wide bool
}

// The session shares below, the Zipf exponents in newSessionGen, the
// stream share and the writer's rate and batches are unverified
// assumptions, not measured traffic; METRICS.md lists them.
var (
	// exploreMix is a facet-browser / graph-explorer session mix.
	exploreMix = readMix{facets: 6, neighborhood: 5, overview: 2, keyword: 3, canned: 4, streamEvery: 12, wide: true}
	// writeMixedReadMix keeps the exploration steps but leaves out the
	// dataset-wide views — every write would make each of them recompute
	// the whole dataset, and a facet view's background warming recomputes
	// the root view — and adds short SPARQL reads.
	writeMixedReadMix = readMix{neighborhood: 3, overview: 1, canned: 2, short: 4, streamEvery: 16}
)

// sessionGen replays seeded browsing sessions: facet drill-downs over one
// to three filters, neighborhood expansions from Zipf-popular entities,
// overviews, keyword lookups and popular canned queries.
type sessionGen struct {
	rng     *rand.Rand
	d       *dataset
	mix     readMix
	popular *rand.Zipf // entity popularity
	wanted  *rand.Zipf // keyword popularity
	values  *rand.Zipf // category value popularity
	cannedZ *rand.Zipf
	canned  []request
	queue   []request
	kinds   *deck // session kinds, in readMix order
	streams *deck // 1 = stream this step
}

func newSessionGen(seed, poolSeed int64, d *dataset, mix readMix) *sessionGen {
	rng := rand.New(rand.NewSource(seed))
	g := &sessionGen{
		rng:     rng,
		d:       d,
		mix:     mix,
		popular: rand.NewZipf(rng, 1.1, 4, numEntities-1),
		wanted:  rand.NewZipf(rng, 1.5, 2, numEntities-1),
		values:  rand.NewZipf(rng, 1.3, 1, numCategories-1),
		kinds:   newDeck(rng, mix.facets, mix.neighborhood, mix.overview, mix.keyword, mix.canned, mix.short),
		streams: newDeck(rng, mix.streamEvery-1, 1),
	}
	// The canned pool is the same for every client of a run: dashboards
	// share their queries.
	crng := rand.New(rand.NewSource(poolSeed))
	for i := 0; i < 64; i++ {
		switch i % 4 {
		case 0:
			g.canned = append(g.canned, sparqlGet(fmt.Sprintf("SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e %s %s . ?e %s ?c } GROUP BY ?c",
				iri(prop(fmt.Sprintf("cat%d", crng.Intn(3)))), catValue(crng.Intn(numCategories)), iri(string(rdf.RDFType))), false))
		case 1:
			g.canned = append(g.canned, sparqlGet(fmt.Sprintf("SELECT ?e ?l WHERE { ?e %s %s . ?e %s %s . ?e %s ?l }",
				iri(prop("cat0")), catValue(crng.Intn(numCategories)), iri(prop("cat1")), catValue(crng.Intn(numCategories)), iri(string(rdf.RDFSLabel))), false))
		case 2:
			g.canned = append(g.canned, sparqlGet(fmt.Sprintf("SELECT ?e ?v WHERE { ?e %s %s . ?e %s ?v } ORDER BY DESC(?v) ?e LIMIT 20",
				iri(prop("cat2")), catValue(crng.Intn(numCategories)), iri(prop("num1"))), true))
		default:
			g.canned = append(g.canned, sparqlGet(fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", iri(entityIRI(crng.Intn(200)))), false))
		}
	}
	g.cannedZ = rand.NewZipf(rng, 1.2, 2, uint64(len(g.canned)-1))
	return g
}

func (g *sessionGen) next() request {
	for len(g.queue) == 0 {
		g.session()
	}
	r := g.queue[0]
	g.queue = g.queue[1:]
	return r
}

func (g *sessionGen) streamed() bool { return g.streams.deal() == 1 }

// session queues the steps of one browsing session.
func (g *sessionGen) session() {
	switch g.kinds.deal() {
	case 0:
		g.facetDrill()
	case 1:
		g.expand()
	case 2:
		g.overview()
	case 3:
		g.keyword()
	case 4:
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			r := g.canned[g.cannedZ.Uint64()]
			if g.streamed() {
				r.route, r.path, r.stream = "sparql_stream", "/sparql/stream?query="+url.QueryEscape(r.query), true
			}
			g.queue = append(g.queue, r)
		}
	default:
		g.short()
	}
}

// facetDrill narrows the facet view by one to three category filters.
func (g *sessionGen) facetDrill() {
	props := g.rng.Perm(3)
	var params []string
	var filters []facetFilter
	for depth := 1 + g.rng.Intn(3); len(filters) < depth; {
		f := facetFilter{pred: prop(fmt.Sprintf("cat%d", props[len(filters)])), value: int(g.values.Uint64())}
		filters = append(filters, f)
		params = append(params, f.pred+"="+catValue(f.value))
		q := url.Values{"filter": params}.Encode()
		r := request{route: "facets", path: "/facets?" + q}
		if g.streamed() {
			r = request{route: "facets_stream", path: "/facets/stream?" + q, stream: true}
		}
		r.filters = filters[:len(filters):len(filters)]
		g.queue = append(g.queue, r)
	}
}

// expand follows links outward from a popular entity.
func (g *sessionGen) expand() {
	e := int(g.popular.Uint64())
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.queue = append(g.queue, request{route: "graph_neighborhood", node: entityIRI(e),
			path: "/graph/neighborhood?node=" + url.QueryEscape(iri(entityIRI(e))) + "&hops=1"})
		e = (e*7 + 1 + int(g.popular.Uint64())) % numEntities
	}
}

// overview asks for a numeric hierarchy and, when dataset-wide views are
// in the mix, the dataset statistics.
func (g *sessionGen) overview() {
	props := []string{"num0", "num1", "date0"}
	budgets := []int{16, 32, 64}
	p, b := prop(props[g.rng.Intn(3)]), budgets[g.rng.Intn(3)]
	g.queue = append(g.queue, request{route: "hetree", prop: p, budget: b,
		path: fmt.Sprintf("/hetree?prop=%s&budget=%d", url.QueryEscape(p), b)})
	if g.mix.wide {
		if g.streamed() {
			g.queue = append(g.queue, request{route: "stats_stream", path: "/stats/stream", stream: true})
		} else {
			g.queue = append(g.queue, request{route: "stats", path: "/stats"})
		}
	}
}

// keyword types a prefix, then searches for an entity number.
func (g *sessionGen) keyword() {
	n := fmt.Sprint(g.wanted.Uint64())
	if len(n) > 1 {
		g.queue = append(g.queue, request{route: "complete", text: n[:len(n)-1], path: "/complete?prefix=" + n[:len(n)-1] + "&limit=10"})
	}
	g.queue = append(g.queue, request{route: "search", text: "entity " + n, path: "/search?q=" + url.QueryEscape("entity "+n) + "&limit=10"})
}

// short is a small SPARQL read: a label lookup, a describe or a narrow
// conjunction.
func (g *sessionGen) short() {
	e := int(g.popular.Uint64())
	switch g.rng.Intn(3) {
	case 0:
		g.queue = append(g.queue, sparqlGet(fmt.Sprintf("SELECT ?e WHERE { ?e %s %q }", iri(string(rdf.RDFSLabel)), g.d.label[e]), false))
	case 1:
		g.queue = append(g.queue, sparqlGet(fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", iri(entityIRI(e))), false))
	default:
		g.queue = append(g.queue, sparqlGet(fmt.Sprintf("SELECT ?e WHERE { ?e %s %s . ?e %s %s . ?e %s %s } LIMIT 20",
			iri(string(rdf.RDFType)), iri(classIRI(g.d.class[e])), iri(prop("cat0")), catValue(int(g.values.Uint64())),
			iri(prop("cat2")), catValue(g.rng.Intn(numCategories))), false))
	}
}

// writerGen is the data feed of write-mixed: INSERT DATA batches that add
// new entities and DELETE DATA batches that remove statements of the
// generated dataset. Inserted triples are never deleted and no statement
// is deleted twice, so the durability check knows every triple's fate.
type writerGen struct {
	rng      *rand.Rand
	d        *dataset
	ops      *deck // 0 = insert, 1 = delete
	inserted int   // entities added so far
	deleted  int   // position in the deletion order
	stride   int   // deletion order: i*stride mod len(triples)
	offset   int
}

func newWriterGen(seed int64, d *dataset) *writerGen {
	rng := rand.New(rand.NewSource(seed))
	n := len(d.triples)
	stride := 1 + rng.Intn(n-1)
	for gcd(stride, n) != 1 {
		stride++
	}
	return &writerGen{rng: rng, d: d, ops: newDeck(rng, 2, 1), stride: stride, offset: rng.Intn(n)}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *writerGen) next() request {
	var text strings.Builder
	r := request{route: "sparql_update", path: "/sparql"}
	if g.ops.deal() == 0 {
		for k := 0; k < 6; k++ {
			n := numEntities + g.inserted
			g.inserted++
			e := rdf.IRI(entityIRI(n))
			r.insert = append(r.insert,
				rdf.T(e, rdf.RDFType, rdf.IRI(classIRI(g.rng.Intn(numClasses)))),
				rdf.T(e, rdf.RDFSLabel, rdf.NewLiteral(fmt.Sprintf("Fed entity %d", n))),
				rdf.T(e, rdf.IRI(prop("cat0")), rdf.NewLiteral(fmt.Sprintf("category-%d", g.rng.Intn(numCategories)))),
				rdf.T(e, rdf.IRI(prop("num0")), rdf.NewDouble(math.Round(g.rng.ExpFloat64()*100000)/1000)),
				rdf.T(e, rdf.IRI(prop("rel0")), rdf.IRI(entityIRI(g.rng.Intn(numEntities)))),
			)
		}
		text.WriteString("INSERT DATA {\n")
		writeTriples(&text, r.insert)
	} else {
		n := len(g.d.triples)
		for k := 0; k < 30; k++ {
			r.delete = append(r.delete, g.d.triples[(g.offset+g.deleted*g.stride)%n])
			g.deleted++
		}
		text.WriteString("DELETE DATA {\n")
		writeTriples(&text, r.delete)
	}
	text.WriteString("}")
	r.body = text.String()
	return r
}

func writeTriples(b *strings.Builder, ts []rdf.Triple) {
	for _, t := range ts {
		fmt.Fprintf(b, "  %s %s %s .\n", t.S, t.P, t.O)
	}
}
