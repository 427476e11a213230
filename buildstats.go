package cirank

import (
	"fmt"
	"strings"
	"time"
)

// StageStats describes one stage of the offline build pipeline.
type StageStats struct {
	// Duration is the stage's wall-clock time. Stages that ran concurrently
	// with others (see BuildStats) overlap, so stage durations can sum to
	// more than BuildStats.Total.
	Duration time.Duration
	// Workers is the number of goroutines the stage fanned its work across
	// (1 for inherently sequential stages).
	Workers int
	// Items is the number of units the stage processed — graph nodes for
	// the index stages, tuples for graph construction.
	Items int
}

// Rate reports the stage's throughput in items per second (0 when the
// duration is too small to measure).
func (s StageStats) Rate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Items) / s.Duration.Seconds()
}

// String renders the stage as "12.3ms (4 workers, 81300 items/s)".
func (s StageStats) String() string {
	return fmt.Sprintf("%v (%d workers, %.0f items/s)", s.Duration.Round(time.Microsecond), s.Workers, s.Rate())
}

// Engine data provenance values reported in BuildStats.Source.
const (
	// SourceBuild marks an engine assembled by the offline build pipeline
	// (Builder.Build / BuildContext): every stage actually ran.
	SourceBuild = "build"
	// SourceStream marks an engine decoded from an io.Reader snapshot
	// (LoadEngine); all arrays were copied off the stream and the expensive
	// build stages were skipped.
	SourceStream = "stream"
	// SourceMmap marks an engine opened from a memory-mapped snapshot file
	// (Open); flat arrays alias the mapping zero-copy where the platform
	// allows and the expensive build stages were skipped.
	SourceMmap = "mmap"
)

// BuildStats reports what the offline build pipeline did: per-stage
// wall-clock durations, fan-out and throughput. Builder.BuildContext runs
// the text-index stage concurrently with PageRank, so TextIndex overlaps
// PageRank in wall-clock terms. Engines loaded from a snapshot report zero
// stage timings with Source saying how the data arrived instead.
type BuildStats struct {
	// Source records where the engine's data came from: SourceBuild,
	// SourceStream or SourceMmap. Loaded engines keep every stage at zero —
	// the point of a snapshot is that PageRank and the text index are read
	// back, not recomputed.
	Source string
	// Total is the wall-clock time of the whole build.
	Total time.Duration
	// Workers is the resolved worker count of the parallel text-index stage
	// (Config.Workers, with 0 resolved to the CPU count).
	Workers int
	// Graph covers relational graph construction (tuples + links → CSR).
	Graph StageStats
	// TextIndex covers the sharded inverted-index build.
	TextIndex StageStats
	// PageRank covers the importance power iteration (sequential, so
	// importance values never depend on the worker count).
	PageRank StageStats
}

// String renders a one-line-per-stage summary suitable for startup logs.
func (b BuildStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total %v, %d workers", b.Total.Round(time.Microsecond), b.Workers)
	fmt.Fprintf(&sb, " | graph %v", b.Graph)
	fmt.Fprintf(&sb, " | text %v", b.TextIndex)
	fmt.Fprintf(&sb, " | pagerank %v", b.PageRank)
	return sb.String()
}
