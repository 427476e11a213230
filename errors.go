package cirank

import (
	"errors"

	"cirank/internal/search"
)

// Sentinel errors of the query API. They are shared with the internal
// search layer, so errors.Is classifies a failure no matter which layer
// produced it; returned errors usually wrap a sentinel together with the
// offending value.
var (
	// ErrBadK reports a search request with k < 1.
	ErrBadK = search.ErrBadK
	// ErrEmptyQuery reports a query with no usable terms (empty input, or
	// input reduced to nothing by tokenization).
	ErrEmptyQuery = search.ErrEmptyQuery
	// ErrBadOptions reports an invalid SearchOptions field (negative
	// Diameter, Workers or MaxExpansions below -1, or an oversized query).
	ErrBadOptions = search.ErrBadOptions
	// ErrDeadline reports that the context passed to SearchContext or
	// SearchTermsContext was already cancelled or past its deadline before
	// the query started, so no work was done. A context that expires
	// mid-query does NOT produce this error: the query returns the best
	// answers found so far with SearchStats.Interrupted set. Errors
	// wrapping ErrDeadline also wrap the context's own error, so
	// errors.Is(err, context.DeadlineExceeded) works too.
	ErrDeadline = search.ErrDeadline
	// ErrBadConfig reports an invalid Config field at engine build time —
	// in particular an explicit Alpha: 0 or Teleport: 0, which earlier
	// versions silently rewrote to the paper defaults — or a Builder.SetWeight
	// weight that is not positive and finite.
	ErrBadConfig = errors.New("cirank: invalid config")
	// ErrBadSnapshot reports a snapshot that LoadEngine or Open rejected:
	// wrong magic, unsupported version, a truncated or corrupt section
	// table, a checksum mismatch, or section contents that fail structural
	// validation. Every decode-path error wraps this sentinel, so callers
	// distinguish "the file is bad" from I/O failures with errors.Is.
	ErrBadSnapshot = errors.New("cirank: invalid snapshot")
)
