// Package textindex provides the full-text indexing substrate for keyword
// search. The paper built its term index with Apache Lucene; this package
// implements the equivalent from scratch: a tokenizer and an inverted index
// from terms to posting lists over graph nodes. The index holds postings
// and nothing else: a node's word count |v| is graph.Node.Words, and the
// per-relation statistics of the SPARK baseline (§II-B) are derived from the
// graph and the postings by that scorer (internal/baseline).
package textindex

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"unicode"

	"cirank/internal/graph"
)

// Tokenize splits text into lowercase alphanumeric terms. It is the single
// tokenization rule used everywhere (index construction, query parsing, node
// word counts), so that |v|, |v ∩ Q| and tf statistics are all measured in
// the same units.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	})
}

// WordCount reports the number of tokens in text, i.e. |v| in the paper's
// message-generation formula.
func WordCount(text string) int { return len(Tokenize(text)) }

// Posting records that a term occurs TF times in the text of node Node.
type Posting struct {
	// Node is the graph node whose text contains the term.
	Node graph.NodeID
	// TF is the term's occurrence count in that node's text.
	TF int
}

// Index is an immutable inverted index over the text of a graph's nodes.
type Index struct {
	postings map[string][]Posting // term → postings sorted by node
	numNodes int                  // node-ID domain of the postings
}

// Build indexes every node of g, fanning the tokenization across one worker
// per CPU. Use BuildContext to pick the fan-out or to make the build
// cancellable; the produced index is identical for every worker count.
func Build(g *graph.Graph) *Index {
	ix, err := BuildContext(context.Background(), g, 0)
	if err != nil {
		// BuildContext only fails on cancellation, which a background
		// context never reports.
		panic(err)
	}
	return ix
}

// shard accumulates the index contribution of one contiguous node range.
// Within a shard nodes are visited in increasing ID order, so each local
// posting list is sorted; concatenating the shards in range order therefore
// reproduces exactly the posting order of a sequential build.
type shard struct {
	postings map[string][]Posting
}

// BuildContext indexes every node of g using up to workers goroutines over
// contiguous node ranges (0 means one worker per available CPU, as for
// cirank.Config.Workers). Sharding only partitions the node
// scan: per-shard postings merge in shard order, so the result — Postings
// ordering included — is identical to the sequential build for every worker
// count. A cancelled
// ctx aborts the build with an error wrapping ctx.Err().
func BuildContext(ctx context.Context, g *graph.Graph, workers int) (*Index, error) {
	n := g.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ix := &Index{postings: make(map[string][]Posting), numNodes: n}
	shards := make([]*shard, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		sh := &shard{postings: make(map[string][]Posting)}
		shards[w] = sh
		if workers == 1 {
			sh.scan(ctx, g, lo, hi)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.scan(ctx, g, lo, hi)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("textindex: build cancelled: %w", err)
	}
	// Deterministic merge: shards are concatenated in ascending node-range
	// order.
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		for t, ps := range sh.postings {
			ix.postings[t] = append(ix.postings[t], ps...)
		}
	}
	// Nodes are visited in increasing ID order (within and across shards),
	// so each posting list is already sorted; assert cheaply in case that
	// ever changes.
	for _, ps := range ix.postings {
		if !sort.SliceIsSorted(ps, func(a, b int) bool { return ps[a].Node < ps[b].Node }) {
			sort.Slice(ps, func(a, b int) bool { return ps[a].Node < ps[b].Node })
		}
	}
	return ix, nil
}

// cancelCheckStride is how many nodes a shard scans between context polls.
const cancelCheckStride = 256

// scan accumulates nodes [lo, hi) into the shard. On cancellation the scan
// stops early — the caller detects ctx.Err and discards the partial result.
func (sh *shard) scan(ctx context.Context, g *graph.Graph, lo, hi int) {
	for i := lo; i < hi; i++ {
		if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
			return
		}
		id := graph.NodeID(i)
		terms := Tokenize(g.Node(id).Text)
		counts := make(map[string]int, len(terms))
		for _, t := range terms {
			counts[t]++
		}
		for t, c := range counts {
			sh.postings[t] = append(sh.postings[t], Posting{Node: id, TF: c})
		}
	}
}

// Postings returns the posting list for term (lowercased exact match),
// sorted by node ID. The returned slice aliases internal storage.
func (ix *Index) Postings(term string) []Posting {
	return ix.postings[strings.ToLower(term)]
}

// MatchingNodes returns the IDs of all nodes containing term — the non-free
// node set E_n(k) of Definition 2.
func (ix *Index) MatchingNodes(term string) []graph.NodeID {
	return ix.AppendMatchingNodes(nil, term)
}

// AppendMatchingNodes appends the IDs of all nodes containing term to dst and
// returns the extended slice. It is MatchingNodes for callers that reuse a
// buffer across queries (the search hot path's query preparation).
func (ix *Index) AppendMatchingNodes(dst []graph.NodeID, term string) []graph.NodeID {
	ps := ix.Postings(term)
	if cap(dst)-len(dst) < len(ps) {
		grown := make([]graph.NodeID, len(dst), len(dst)+len(ps))
		copy(grown, dst)
		dst = grown
	}
	for _, p := range ps {
		dst = append(dst, p.Node)
	}
	return dst
}

// TF reports the number of occurrences of term in node id's text.
func (ix *Index) TF(id graph.NodeID, term string) int {
	ps := ix.Postings(term)
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Node >= id })
	if i < len(ps) && ps[i].Node == id {
		return ps[i].TF
	}
	return 0
}

// DFTotal reports the number of nodes containing term across all relations.
func (ix *Index) DFTotal(term string) int {
	return len(ix.Postings(term))
}

// QueryMatchCount reports |v ∩ Q|: the number of word occurrences in node
// id's text that match any query term. Following the paper's definition
// ("how many words in the node v_i match the query Q"), it counts
// occurrences, so a node mentioning a query term twice counts it twice.
// Duplicate query terms are counted once.
func (ix *Index) QueryMatchCount(id graph.NodeID, queryTerms []string) int {
	total := 0
	for i, t := range queryTerms {
		t = strings.ToLower(t)
		if termSeenBefore(queryTerms, i, t) {
			continue
		}
		total += ix.TF(id, t)
	}
	return total
}

// termSeenBefore reports whether term t already occurred (case-insensitively)
// among queryTerms[:i]. Queries hold a handful of terms, so the quadratic
// scan beats a per-call map — Generation sits on the search hot path and
// must not allocate.
func termSeenBefore(queryTerms []string, i int, t string) bool {
	for _, prev := range queryTerms[:i] {
		if strings.EqualFold(prev, t) {
			return true
		}
	}
	return false
}
