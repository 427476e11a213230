package cirank

import (
	"fmt"

	"cirank/internal/mmapio"
)

// Open memory-maps the snapshot file at path and reconstructs an engine from
// it. The flat-array sections — CSR offsets, edges and out-sums, and the
// importance and dampening vectors — are viewed directly from the read-only
// mapping without copying (where the platform permits; big-endian or
// misaligned hosts transparently decode copies), so opening is dominated by
// the variable-length sections and the checksum pass rather than by array
// decoding. The expensive build stages (PageRank, the text index) are
// skipped entirely; BuildStats.Source reports SourceMmap.
//
// Because the engine may alias the mapping, Close must be called once the
// engine is no longer in use, and never while queries are in flight. Corrupt
// files are rejected with an error wrapping ErrBadSnapshot.
func Open(path string) (*Engine, error) {
	m, err := mmapio.Map(path)
	if err != nil {
		return nil, fmt.Errorf("cirank: opening snapshot: %w", err)
	}
	e, err := decodeV2(m.Data(), true)
	if err != nil {
		m.Close()
		return nil, err
	}
	e.closer = m.Close
	e.buildStats.Source = SourceMmap
	return e, nil
}
