package cirank

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cirank/internal/graph"
	"cirank/internal/mmapio"
	"cirank/internal/pathindex"
	"cirank/internal/relational"
	"cirank/internal/rwmp"
	"cirank/internal/search"
	"cirank/internal/textindex"
)

// Engine snapshots persist every build product — the data graph, the
// converged importance vector, the dampening rates, the star index, the full
// text index and the complete tuple mapping — so a process restart skips all
// of the expensive offline stages. Save writes format v2, a sectioned layout
// built for zero-copy loading:
//
//	magic "CIEN" | version u32 (=2) | sectionCount u32 | tableCRC32 u32
//	section table: sectionCount × 40-byte entries
//	    name [16]byte (NUL-padded) | offset u64 | length u64 |
//	    crc32 u32 | reserved u32 (zero)
//	payloads, each at a 16-byte-aligned offset, in table order
//
// Flat-array sections (CSR offsets/edges/out-sums, importance, dampening,
// star tables) are raw little-endian arrays, so Open can view them directly
// from a memory-mapped file without decoding; variable-length sections
// (node records, text index, entity map) are decoded on every load. The
// section table's CRC and the per-section CRCs are verified before any
// payload is trusted. Section names, in file order:
//
//	meta        alpha f64 | group f64 | numNodes u64 | numEdges u64 | flags u64
//	nodes       numNodes × (relation str | key str | text str | words u32)
//	csr.off     (numNodes+1) × i32
//	csr.edge    numEdges × (to u32 | pad u32 | weight f64)
//	csr.outsum  numNodes × f64
//	imp         numNodes × f64
//	damp        numNodes × f64
//	text        term postings (textindex.Index.Encode; version 1 is refused)
//	entmap      count u64 | count × (table str | key str | node u32)
//	star.meta   maxDepth u32 | reserved u32 | numStar u64 | far f64
//	star.flags  numNodes × u8 (0/1)
//	star.ord    numNodes × i32
//	star.dist   numStar² × u8
//	star.ret    numStar² × f64
//
// The five star.* sections are present together exactly when the meta flags
// word has bit 0 set; strings are u32-length-prefixed UTF-8. The encoding is
// deterministic: the same engine always serializes to the same bytes.
//
// v2 is the only format: any other version word (including the retired v1
// stream format) is rejected. Flag bit 1 and the section names "shard" and
// "shard.owned" belonged to the retired shard engines, whose snapshots hold a
// member-induced subgraph of a corpus: they are rejected by name so such a
// file can never load and rank over a partial graph. Every decode error wraps
// ErrBadSnapshot.

const (
	engineMagic     = "CIEN"
	engineVersionV2 = 2

	// snapHeaderSize is the fixed v2 preamble: magic, version, section
	// count, table CRC.
	snapHeaderSize = 16
	// snapEntrySize is one section-table entry.
	snapEntrySize = 40
	// snapNameLen is the fixed width of a section name (NUL-padded).
	snapNameLen = 16
	// snapAlign is the payload alignment, wide enough for every aliased
	// element type (f64 and the 16-byte edge record).
	snapAlign = 16
	// maxSections bounds the section count a decoder will size a table for;
	// the format defines 14 names, so anything near this is corruption.
	maxSections = 64
	// maxSnapshotString bounds one length-prefixed string, matching the
	// graph serialization's limit.
	maxSnapshotString = 1 << 24

	metaSectionSize     = 40
	starMetaSectionSize = 24
	// metaFlagStarIndex marks that the five star.* sections are present.
	metaFlagStarIndex = uint64(1) << 0
	// metaFlagRetiredShard marked a shard engine's snapshot (see
	// errRetiredShard).
	metaFlagRetiredShard = uint64(1) << 1
)

// Section names of the v2 format.
const (
	secMeta      = "meta"
	secNodes     = "nodes"
	secCSROff    = "csr.off"
	secCSREdge   = "csr.edge"
	secCSRSum    = "csr.outsum"
	secImp       = "imp"
	secDamp      = "damp"
	secText      = "text"
	secEntMap    = "entmap"
	secStarMeta  = "star.meta"
	secStarFlags = "star.flags"
	secStarOrd   = "star.ord"
	secStarDist  = "star.dist"
	secStarRet   = "star.ret"
)

// requiredSections must be present in every v2 snapshot; starSections are
// all-or-none, keyed on the meta flags word.
var (
	requiredSections = []string{
		secMeta, secNodes, secCSROff, secCSREdge, secCSRSum,
		secImp, secDamp, secText, secEntMap,
	}
	starSections  = []string{secStarMeta, secStarFlags, secStarOrd, secStarDist, secStarRet}
	knownSections = func() map[string]bool {
		m := make(map[string]bool)
		for _, s := range requiredSections {
			m[s] = true
		}
		for _, s := range starSections {
			m[s] = true
		}
		return m
	}()
	// retiredShardSections named a shard engine's slice of its partition
	// plan.
	retiredShardSections = map[string]bool{"shard": true, "shard.owned": true}
)

// errRetiredShard refuses a file the retired shard engines wrote, known by
// metaFlagRetiredShard or a retiredShardSections name: it holds a
// member-induced subgraph, and must not load and rank as if it were a corpus.
var errRetiredShard = badSnap("shard snapshots are no longer supported; re-save the whole engine")

// badSnap builds an error wrapping ErrBadSnapshot.
func badSnap(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// snapSection is one named payload queued for writing.
type snapSection struct {
	name    string
	payload []byte
}

// Save writes a v2 snapshot of the engine. The byte stream is deterministic:
// saving the same engine (or an engine loaded from the saved bytes) always
// produces identical output.
func (e *Engine) Save(w io.Writer) error {
	return writeSnapshot(w, e.encodeSections())
}

// encodeSections serializes every engine part into its named section, in
// file order.
func (e *Engine) encodeSections() []snapSection {
	n := e.g.NumNodes()
	offsets, edges, outSum := e.g.CSR()
	params := e.model.Params()

	meta := make([]byte, 0, metaSectionSize)
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(params.Alpha))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(params.Group))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(n))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(edges)))
	var flags uint64
	if e.starIdx != nil {
		flags |= metaFlagStarIndex
	}
	meta = binary.LittleEndian.AppendUint64(meta, flags)

	var nodes []byte
	for v := 0; v < n; v++ {
		node := e.g.Node(graph.NodeID(v))
		nodes = appendSnapString(nodes, node.Relation)
		nodes = appendSnapString(nodes, node.Key)
		nodes = appendSnapString(nodes, node.Text)
		nodes = binary.LittleEndian.AppendUint32(nodes, uint32(node.Words))
	}

	entmap := binary.LittleEndian.AppendUint64(nil, uint64(len(e.mapEntries)))
	for _, me := range e.mapEntries {
		entmap = appendSnapString(entmap, me.Table)
		entmap = appendSnapString(entmap, me.Key)
		entmap = binary.LittleEndian.AppendUint32(entmap, uint32(me.Node))
	}

	secs := []snapSection{
		{secMeta, meta},
		{secNodes, nodes},
		{secCSROff, mmapio.AppendInt32s(nil, offsets)},
		{secCSREdge, graph.AppendEdges(nil, edges)},
		{secCSRSum, mmapio.AppendFloat64s(nil, outSum)},
		{secImp, mmapio.AppendFloat64s(nil, e.imp)},
		{secDamp, mmapio.AppendFloat64s(nil, e.model.DampVector())},
		{secText, e.ix.Encode()},
		{secEntMap, entmap},
	}
	if e.starIdx != nil {
		p := e.starIdx.Parts()
		sm := make([]byte, 0, starMetaSectionSize)
		sm = binary.LittleEndian.AppendUint32(sm, uint32(p.MaxDepth))
		sm = binary.LittleEndian.AppendUint32(sm, 0)
		sm = binary.LittleEndian.AppendUint64(sm, uint64(p.NumStar))
		sm = binary.LittleEndian.AppendUint64(sm, math.Float64bits(p.Far))
		starFlags := make([]byte, len(p.IsStar))
		for i, b := range p.IsStar {
			if b {
				starFlags[i] = 1
			}
		}
		secs = append(secs,
			snapSection{secStarMeta, sm},
			snapSection{secStarFlags, starFlags},
			snapSection{secStarOrd, mmapio.AppendInt32s(nil, p.StarIdx)},
			snapSection{secStarDist, p.Dist},
			snapSection{secStarRet, mmapio.AppendFloat64s(nil, p.Ret)},
		)
	}
	return secs
}

// writeSnapshot lays the sections out with 16-byte-aligned offsets, computes
// the per-section and table CRCs, and writes header, table and payloads.
func writeSnapshot(w io.Writer, secs []snapSection) error {
	headerEnd := snapHeaderSize + snapEntrySize*len(secs)
	table := make([]byte, 0, snapEntrySize*len(secs))
	offsets := make([]int, len(secs))
	cur := snapAlignUp(headerEnd)
	for i, s := range secs {
		offsets[i] = cur
		var name [snapNameLen]byte
		copy(name[:], s.name)
		table = append(table, name[:]...)
		table = binary.LittleEndian.AppendUint64(table, uint64(cur))
		table = binary.LittleEndian.AppendUint64(table, uint64(len(s.payload)))
		table = binary.LittleEndian.AppendUint32(table, crc32.ChecksumIEEE(s.payload))
		table = binary.LittleEndian.AppendUint32(table, 0)
		cur = snapAlignUp(cur + len(s.payload))
	}
	hdr := make([]byte, 0, snapHeaderSize)
	hdr = append(hdr, engineMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, engineVersionV2)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(secs)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(table))
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(table); err != nil {
		return err
	}
	pos := headerEnd
	var pad [snapAlign]byte
	for i, s := range secs {
		if _, err := bw.Write(pad[:offsets[i]-pos]); err != nil {
			return err
		}
		if _, err := bw.Write(s.payload); err != nil {
			return err
		}
		pos = offsets[i] + len(s.payload)
	}
	return bw.Flush()
}

// snapAlignUp rounds x up to the next multiple of snapAlign.
func snapAlignUp(x int) int {
	return (x + snapAlign - 1) &^ (snapAlign - 1)
}

// appendSnapString appends the u32-length-prefixed wire form of s.
func appendSnapString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// LoadEngine reconstructs an engine from a snapshot written by Save. The
// returned engine copies everything off the stream (BuildStats.Source reports
// SourceStream); use Open for the zero-copy path. Corrupt input, including
// any format version other than 2, is rejected with an error wrapping
// ErrBadSnapshot.
func LoadEngine(r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cirank: reading snapshot: %w", err)
	}
	return decodeV2(data, false)
}

// assembleLoaded builds the engine shell around a decoded snapshot's parts.
func assembleLoaded(g *graph.Graph, ix *textindex.Index, model *rwmp.Model, imp []float64,
	starIdx *pathindex.StarIndex, entries []relational.MappingEntry, byKey map[string]graph.NodeID) *Engine {
	e := &Engine{
		g:          g,
		ix:         ix,
		model:      model,
		searcher:   search.New(model),
		starIdx:    starIdx,
		imp:        imp,
		mapEntries: entries,
		lookup: func(table, key string) (graph.NodeID, bool) {
			id, ok := byKey[table+"\x00"+key]
			return id, ok
		},
	}
	e.buildStats.Source = SourceStream
	return e
}

// decodeV2 decodes a complete v2 snapshot image. With alias true the flat
// arrays view data's memory zero-copy where the platform permits (the Open
// path, where data is a read-only mapping); with alias false everything is
// copied (the LoadEngine stream path). Validation order: header, section
// table CRC, per-entry geometry (known name, alignment, in-bounds,
// non-overlapping), per-section CRCs, then structural checks of every
// decoded part.
func decodeV2(data []byte, alias bool) (*Engine, error) {
	if len(data) < snapHeaderSize {
		return nil, badSnap("truncated header: %d bytes", len(data))
	}
	if string(data[:4]) != engineMagic {
		return nil, badSnap("bad snapshot magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != engineVersionV2 {
		return nil, badSnap("unsupported snapshot version %d", v)
	}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	if count < 1 || count > maxSections {
		return nil, badSnap("section count %d outside [1, %d]", count, maxSections)
	}
	tableEnd := snapHeaderSize + count*snapEntrySize
	if len(data) < tableEnd {
		return nil, badSnap("truncated section table: %d bytes for %d sections", len(data), count)
	}
	table := data[snapHeaderSize:tableEnd]
	if got, want := crc32.ChecksumIEEE(table), binary.LittleEndian.Uint32(data[12:]); got != want {
		return nil, badSnap("section table checksum mismatch (%08x != %08x)", got, want)
	}
	secs := make(map[string][]byte, count)
	prevEnd := uint64(tableEnd)
	for i := 0; i < count; i++ {
		entry := table[i*snapEntrySize : (i+1)*snapEntrySize]
		name := string(bytes.TrimRight(entry[:snapNameLen], "\x00"))
		if name == "" || bytes.IndexByte([]byte(name), 0) >= 0 {
			return nil, badSnap("invalid section name %q", entry[:snapNameLen])
		}
		if retiredShardSections[name] {
			return nil, errRetiredShard
		}
		if !knownSections[name] {
			return nil, badSnap("unknown section %q", name)
		}
		if _, dup := secs[name]; dup {
			return nil, badSnap("duplicate section %q", name)
		}
		off := binary.LittleEndian.Uint64(entry[16:])
		length := binary.LittleEndian.Uint64(entry[24:])
		crc := binary.LittleEndian.Uint32(entry[32:])
		if rsv := binary.LittleEndian.Uint32(entry[36:]); rsv != 0 {
			return nil, badSnap("section %q has nonzero reserved word %#x", name, rsv)
		}
		if off%snapAlign != 0 {
			return nil, badSnap("section %q misaligned at offset %d", name, off)
		}
		if off < prevEnd {
			return nil, badSnap("section %q at offset %d overlaps the previous section ending at %d", name, off, prevEnd)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, badSnap("section %q [%d, +%d) exceeds snapshot size %d", name, off, length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, badSnap("section %q checksum mismatch (%08x != %08x)", name, got, crc)
		}
		secs[name] = payload
		prevEnd = off + length
	}
	for _, name := range requiredSections {
		if _, ok := secs[name]; !ok {
			return nil, badSnap("missing section %q", name)
		}
	}

	meta := secs[secMeta]
	if len(meta) != metaSectionSize {
		return nil, badSnap("section %q is %d bytes, want %d", secMeta, len(meta), metaSectionSize)
	}
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(meta[0:]))
	group := math.Float64frombits(binary.LittleEndian.Uint64(meta[8:]))
	nNodes := binary.LittleEndian.Uint64(meta[16:])
	nEdges := binary.LittleEndian.Uint64(meta[24:])
	flags := binary.LittleEndian.Uint64(meta[32:])
	if flags&metaFlagRetiredShard != 0 {
		return nil, errRetiredShard
	}
	if flags&^metaFlagStarIndex != 0 {
		return nil, badSnap("unknown meta flags %#x", flags)
	}
	if nNodes > math.MaxInt32 {
		return nil, badSnap("node count %d exceeds the limit", nNodes)
	}
	if nEdges > math.MaxInt32 {
		return nil, badSnap("edge count %d exceeds the limit", nEdges)
	}
	n := int(nNodes)
	for _, want := range []struct {
		name string
		size uint64
	}{
		{secCSROff, 4 * (nNodes + 1)},
		{secCSREdge, 16 * nEdges},
		{secCSRSum, 8 * nNodes},
		{secImp, 8 * nNodes},
		{secDamp, 8 * nNodes},
	} {
		if got := uint64(len(secs[want.name])); got != want.size {
			return nil, badSnap("section %q is %d bytes, want %d", want.name, got, want.size)
		}
	}

	nodes, err := decodeNodeRecords(secs[secNodes], n)
	if err != nil {
		return nil, err
	}
	offsets := mmapio.Int32s(secs[secCSROff], alias)
	edges := graph.EdgesFromBytes(secs[secCSREdge], alias)
	outSum := mmapio.Float64s(secs[secCSRSum], alias)
	impV := mmapio.Float64s(secs[secImp], alias)
	dampV := mmapio.Float64s(secs[secDamp], alias)
	g, err := graph.FromCSR(nodes, offsets, edges, outSum)
	if err != nil {
		return nil, badSnap("%v", err)
	}
	ix, err := textindex.Decode(secs[secText], n)
	if err != nil {
		return nil, badSnap("%v", err)
	}
	model, err := rwmp.NewFromParts(g, ix, impV, dampV, rwmp.Params{Alpha: alpha, Group: group})
	if err != nil {
		return nil, badSnap("%v", err)
	}

	var starIdx *pathindex.StarIndex
	if flags&metaFlagStarIndex != 0 {
		starIdx, err = decodeStarSections(secs, g, dampV, n, alias)
		if err != nil {
			return nil, err
		}
	} else {
		for _, name := range starSections {
			if _, ok := secs[name]; ok {
				return nil, badSnap("section %q present without the star-index flag", name)
			}
		}
	}

	entries, byKey, err := decodeEntMap(secs[secEntMap], n)
	if err != nil {
		return nil, err
	}
	return assembleLoaded(g, ix, model, impV, starIdx, entries, byKey), nil
}

// decodeStarSections validates and reassembles the five star.* sections.
func decodeStarSections(secs map[string][]byte, g *graph.Graph, damp []float64, n int, alias bool) (*pathindex.StarIndex, error) {
	for _, name := range starSections {
		if _, ok := secs[name]; !ok {
			return nil, badSnap("star-index flag set but section %q is missing", name)
		}
	}
	sm := secs[secStarMeta]
	if len(sm) != starMetaSectionSize {
		return nil, badSnap("section %q is %d bytes, want %d", secStarMeta, len(sm), starMetaSectionSize)
	}
	maxDepth := binary.LittleEndian.Uint32(sm[0:])
	if rsv := binary.LittleEndian.Uint32(sm[4:]); rsv != 0 {
		return nil, badSnap("section %q has nonzero reserved word %#x", secStarMeta, rsv)
	}
	numStar := binary.LittleEndian.Uint64(sm[8:])
	far := math.Float64frombits(binary.LittleEndian.Uint64(sm[16:]))
	if numStar > uint64(n) {
		return nil, badSnap("star count %d exceeds %d nodes", numStar, n)
	}
	s2 := numStar * numStar
	for _, want := range []struct {
		name string
		size uint64
	}{
		{secStarFlags, uint64(n)},
		{secStarOrd, 4 * uint64(n)},
		{secStarDist, s2},
		{secStarRet, 8 * s2},
	} {
		if got := uint64(len(secs[want.name])); got != want.size {
			return nil, badSnap("section %q is %d bytes, want %d", want.name, got, want.size)
		}
	}
	if !mmapio.ValidateBools(secs[secStarFlags]) {
		return nil, badSnap("section %q holds bytes other than 0/1", secStarFlags)
	}
	parts := pathindex.StarParts{
		MaxDepth: int(maxDepth),
		IsStar:   mmapio.Bools(secs[secStarFlags], alias),
		StarIdx:  mmapio.Int32s(secs[secStarOrd], alias),
		NumStar:  int(numStar),
		Dist:     mmapio.Uint8s(secs[secStarDist], alias),
		Ret:      mmapio.Float64s(secs[secStarRet], alias),
		Far:      far,
	}
	idx, err := pathindex.FromParts(g, damp, parts)
	if err != nil {
		return nil, badSnap("%v", err)
	}
	return idx, nil
}

// decodeEntMap decodes the entity-map section: the complete, strictly
// (table, key)-sorted tuple mapping. Strict ordering doubles as a duplicate
// check and pins the canonical encoding.
func decodeEntMap(b []byte, n int) ([]relational.MappingEntry, map[string]graph.NodeID, error) {
	c := &snapCursor{b: b}
	count, err := c.u64()
	if err != nil {
		return nil, nil, badSnap("reading entity map count: %v", err)
	}
	// Each entry needs at least two length prefixes and a node id.
	if count > uint64(len(b))/12 {
		return nil, nil, badSnap("entity map claims %d entries in %d bytes", count, len(b))
	}
	entries := make([]relational.MappingEntry, 0, count)
	byKey := make(map[string]graph.NodeID, count)
	prevTable, prevKey := "", ""
	for i := uint64(0); i < count; i++ {
		table, err := c.str()
		if err != nil {
			return nil, nil, badSnap("reading entity map entry %d: %v", i, err)
		}
		key, err := c.str()
		if err != nil {
			return nil, nil, badSnap("reading entity map entry %d: %v", i, err)
		}
		node, err := c.u32()
		if err != nil {
			return nil, nil, badSnap("reading entity map entry %d: %v", i, err)
		}
		if node >= uint32(n) {
			return nil, nil, badSnap("entity map entry %s/%s references node %d of %d", table, key, node, n)
		}
		if i > 0 && (table < prevTable || (table == prevTable && key <= prevKey)) {
			return nil, nil, badSnap("entity map not strictly sorted at %s/%s", table, key)
		}
		prevTable, prevKey = table, key
		entries = append(entries, relational.MappingEntry{Table: table, Key: key, Node: graph.NodeID(node)})
		byKey[table+"\x00"+key] = graph.NodeID(node)
	}
	if len(c.b) != 0 {
		return nil, nil, badSnap("%d trailing bytes after the entity map", len(c.b))
	}
	return entries, byKey, nil
}

// decodeNodeRecords decodes the nodes section into graph node records.
func decodeNodeRecords(b []byte, n int) ([]graph.Node, error) {
	// Each record needs at least three length prefixes and a word count,
	// so the section length bounds a credible node count before the
	// allocation below trusts it.
	if uint64(len(b)) < 16*uint64(n) {
		return nil, badSnap("section %q is %d bytes for %d node records", secNodes, len(b), n)
	}
	c := &snapCursor{b: b}
	nodes := make([]graph.Node, 0, n)
	for i := 0; i < n; i++ {
		rel, err := c.str()
		if err != nil {
			return nil, badSnap("reading node record %d: %v", i, err)
		}
		key, err := c.str()
		if err != nil {
			return nil, badSnap("reading node record %d: %v", i, err)
		}
		text, err := c.str()
		if err != nil {
			return nil, badSnap("reading node record %d: %v", i, err)
		}
		words, err := c.u32()
		if err != nil {
			return nil, badSnap("reading node record %d: %v", i, err)
		}
		nodes = append(nodes, graph.Node{Relation: rel, Key: key, Text: text, Words: int(words)})
	}
	if len(c.b) != 0 {
		return nil, badSnap("%d trailing bytes after the node records", len(c.b))
	}
	return nodes, nil
}

// snapCursor consumes little-endian scalars and length-prefixed strings from
// an in-memory section.
type snapCursor struct {
	b []byte
}

func (c *snapCursor) u32() (uint32, error) {
	if len(c.b) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v, nil
}

func (c *snapCursor) u64() (uint64, error) {
	if len(c.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v, nil
}

func (c *snapCursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	if uint64(len(c.b)) < uint64(n) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}
