package search

import "errors"

// Sentinel errors for query validation and lifecycle. Callers classify
// failures with errors.Is; the returned errors usually wrap a sentinel
// together with the offending value (and, for ErrDeadline, the context's
// own error, so errors.Is also matches context.Canceled or
// context.DeadlineExceeded).
var (
	// ErrBadK reports a top-k request with k < 1.
	ErrBadK = errors.New("search: k must be at least 1")
	// ErrEmptyQuery reports a query with no usable terms after
	// normalization (empty strings and duplicates are dropped).
	ErrEmptyQuery = errors.New("search: empty query")
	// ErrBadOptions reports an invalid Options field (negative diameter,
	// negative MaxExpansions, negative Workers, or an oversized query).
	ErrBadOptions = errors.New("search: invalid options")
	// ErrDeadline reports that the context was already cancelled or past
	// its deadline when the search was asked to start, so no work was done.
	// A context that expires mid-search does NOT produce this error: the
	// search stops promptly and returns the best answers found so far with
	// Stats.Interrupted set.
	ErrDeadline = errors.New("search: context done before search started")
)
