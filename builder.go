package cirank

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"cirank/internal/graph"
	"cirank/internal/relational"
	"cirank/internal/textindex"
)

// Relationship declares a schema-level connection between two tables; every
// related tuple pair becomes two directed graph edges. FromType/ToType
// override the labels used for weight lookup (needed when a table relates
// to itself, like paper citations); empty means the table name.
type Relationship struct {
	// Name identifies the relationship in Relate and LoadRelationship.
	Name string
	// From and To are the related tables.
	From, To string
	// FromType and ToType are the weight-lookup labels of the two ends.
	FromType, ToType string
}

// Builder accumulates a database and produces a query-ready Engine.
// Builders are single-use and not safe for concurrent use.
type Builder struct {
	db       *relational.Database
	weights  graph.WeightTable
	err      error
	feedback []feedbackEntry
	stop     map[string]bool
}

type feedbackEntry struct {
	table, key string
	weight     float64
}

// NewBuilder creates a builder for a custom schema. Edge weights default to
// 1.0 for every relationship direction; use SetWeight to tune them (the
// paper's Table II).
func NewBuilder(tables []string, relationships []Relationship) (*Builder, error) {
	schema := &relational.Schema{Tables: tables}
	for _, r := range relationships {
		schema.Relationships = append(schema.Relationships, relational.Relationship{
			Name: r.Name, From: r.From, To: r.To, FromType: r.FromType, ToType: r.ToType,
		})
	}
	db, err := relational.NewDatabase(schema)
	if err != nil {
		return nil, err
	}
	return &Builder{db: db, weights: graph.WeightTable{}}, nil
}

// NewIMDBBuilder creates a builder with the paper's IMDB schema (Fig. 1(b))
// and Table II edge weights.
func NewIMDBBuilder() *Builder {
	db, err := relational.NewDatabase(relational.IMDBSchema())
	if err != nil {
		panic(err) // the built-in schema is valid by construction
	}
	return &Builder{db: db, weights: graph.DefaultIMDBWeights()}
}

// NewDBLPBuilder creates a builder with the paper's DBLP schema (Fig. 1(a))
// and Table II edge weights.
func NewDBLPBuilder() *Builder {
	db, err := relational.NewDatabase(relational.DBLPSchema())
	if err != nil {
		panic(err)
	}
	return &Builder{db: db, weights: graph.DefaultDBLPWeights()}
}

// SetWeight assigns the edge weight for the from→to direction label pair.
// Build rejects a weight that is not positive and finite with ErrBadConfig.
func (b *Builder) SetWeight(fromLabel, toLabel string, weight float64) {
	b.weights[graph.RelPair{From: fromLabel, To: toLabel}] = weight
}

// SetStopWords configures words to drop from tuple text at insertion time
// (and, symmetrically, from queries at search time — stopwords match
// nothing, because they were never indexed). Must be called before the
// first Insert to apply uniformly. Filtering tokenizes the text, so stored
// text is lowercased.
func (b *Builder) SetStopWords(words ...string) {
	if b.stop == nil {
		b.stop = make(map[string]bool, len(words))
	}
	for _, w := range words {
		for _, tok := range textindex.Tokenize(w) {
			b.stop[tok] = true
		}
	}
}

// filterText strips configured stopwords from text.
func (b *Builder) filterText(text string) string {
	if len(b.stop) == 0 {
		return text
	}
	toks := textindex.Tokenize(text)
	kept := toks[:0]
	for _, t := range toks {
		if !b.stop[t] {
			kept = append(kept, t)
		}
	}
	return strings.Join(kept, " ")
}

// Insert adds a tuple with its searchable text.
func (b *Builder) Insert(table, key, text string) error {
	return b.db.Insert(table, relational.Tuple{Key: key, Text: b.filterText(text)})
}

// InsertEntity adds a tuple tagged with a real-world entity key: tuples
// sharing an entity key merge into one graph node (a person who both acts
// and directs, §VI-A).
func (b *Builder) InsertEntity(table, key, text, entityKey string) error {
	return b.db.Insert(table, relational.Tuple{Key: key, Text: b.filterText(text), EntityKey: entityKey})
}

// LoadTable bulk-inserts tuples from CSV: a header row with a "key" column,
// an optional "entity" column, and text columns concatenated in order. It
// returns the number of tuples loaded. Stopword filtering applies only to
// rows loaded after SetStopWords.
func (b *Builder) LoadTable(table string, r io.Reader) (int, error) {
	if len(b.stop) > 0 {
		// The CSV loader writes tuples directly; rewriting their text
		// afterwards would race entity merging. Keep the contract simple.
		return 0, fmt.Errorf("cirank: LoadTable after SetStopWords is unsupported; pre-filter the CSV or use Insert")
	}
	return relational.LoadTupleCSV(b.db, table, r)
}

// LoadRelationship bulk-records relationship instances from CSV rows of
// `fromKey,toKey` (an optional "from,to" header is skipped).
func (b *Builder) LoadRelationship(relationship string, r io.Reader) (int, error) {
	return relational.LoadRelationshipCSV(b.db, relationship, r)
}

// MustInsert is Insert that records the first error instead of returning
// it; Build reports it. Convenient for literal datasets.
func (b *Builder) MustInsert(table, key, text string) {
	if err := b.Insert(table, key, text); err != nil && b.err == nil {
		b.err = err
	}
}

// Relate records a relationship instance between two existing tuples.
func (b *Builder) Relate(relationship, fromKey, toKey string) error {
	return b.db.Relate(relationship, fromKey, toKey)
}

// MustRelate is Relate with deferred error reporting, like MustInsert.
func (b *Builder) MustRelate(relationship, fromKey, toKey string) {
	if err := b.Relate(relationship, fromKey, toKey); err != nil && b.err == nil {
		b.err = err
	}
}

// AddFeedback records that users engaged with the tuple (e.g. clicked it in
// a result); Build routes Config.FeedbackMix of the teleport mass toward
// recorded tuples, implementing the paper's user-preference biasing.
func (b *Builder) AddFeedback(table, key string, weight float64) {
	b.feedback = append(b.feedback, feedbackEntry{table: table, key: key, weight: weight})
}

// NumTuples reports how many tuples have been inserted.
func (b *Builder) NumTuples() int { return b.db.NumTuples() }

// Build freezes the data and constructs the Engine: data graph, text index,
// importance values and RWMP model. It is BuildContext under a background
// context; use BuildContext to bound or cancel a long build.
func (b *Builder) Build(cfg Config) (*Engine, error) {
	return b.BuildContext(context.Background(), cfg)
}

// BuildContext is Build bounded by ctx. The pipeline runs as a small stage
// DAG: graph construction first, then the text index concurrently with
// PageRank, the text index fanning out across the resolved Config.Workers
// count. A ctx that expires mid-build stops the in-flight stages at their
// next cancellation point and returns an error wrapping the context's error;
// nothing of the partial build escapes.
// The produced engine is identical for every worker count (certified by the
// build-determinism suite) and reports per-stage timings via
// Engine.BuildStats.
func (b *Builder) BuildContext(ctx context.Context, cfg Config) (*Engine, error) {
	if b.err != nil {
		return nil, fmt.Errorf("cirank: deferred build error: %w", b.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, buildCancelled(err)
	}
	for p, w := range b.weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("%w: weight %g for %s→%s is not positive and finite", ErrBadConfig, w, p.From, p.To)
		}
	}
	start := time.Now()
	defaultWeight := 1.0
	g, mp, err := relational.BuildGraph(b.db, b.weights, defaultWeight)
	if err != nil {
		return nil, err
	}
	var stats BuildStats
	stats.Graph = StageStats{Duration: time.Since(start), Workers: 1, Items: g.NumNodes()}
	feedback := make(map[graph.NodeID]float64, len(b.feedback))
	for _, f := range b.feedback {
		id, ok := mp.NodeOf(f.table, f.key)
		if !ok {
			return nil, fmt.Errorf("cirank: feedback references unknown tuple %s/%s", f.table, f.key)
		}
		feedback[id] += f.weight
	}
	eng, err := buildEngine(ctx, g, mp, cfg, feedback, &stats)
	if err != nil {
		return nil, err
	}
	stats.Total = time.Since(start)
	eng.buildStats = stats
	return eng, nil
}
