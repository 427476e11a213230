package cirank

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// buildTestBuilder populates a fresh DBLP builder; Builders are single-use,
// so determinism comparisons need one per build.
func buildTestBuilder(t testing.TB, authors, papers int) *Builder {
	t.Helper()
	b := NewDBLPBuilder()
	for i := 0; i < authors; i++ {
		b.MustInsert("Author", fmt.Sprintf("a%d", i), fmt.Sprintf("author number%d", i))
	}
	for i := 0; i < papers; i++ {
		key := fmt.Sprintf("p%d", i)
		b.MustInsert("Paper", key, fmt.Sprintf("keyword paper title number%d", i))
		b.MustRelate("written_by", key, fmt.Sprintf("a%d", i%authors))
		b.MustRelate("written_by", key, fmt.Sprintf("a%d", (i+7)%authors))
		if i > 0 {
			b.MustRelate("cites", key, fmt.Sprintf("p%d", i/2))
		}
	}
	return b
}

// TestBuildWorkersDeterministic is the end-to-end leg of the
// build-determinism suite: the whole engine — graph, importance vector and
// text index — must serialize to byte-identical snapshots for every worker
// count, certifying that the parallel build pipeline only changes
// throughput.
func TestBuildWorkersDeterministic(t *testing.T) {
	var base []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		eng, err := buildTestBuilder(t, 30, 70).BuildContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), base) {
			t.Fatalf("engine snapshot at Workers=%d differs from Workers=1", workers)
		}
	}
}

// TestBuildStatsPopulated checks the pipeline reports its three stages.
func TestBuildStatsPopulated(t *testing.T) {
	eng, err := buildTestBuilder(t, 20, 40).Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bs := eng.BuildStats()
	if bs.Total <= 0 {
		t.Error("Total not recorded")
	}
	if bs.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", bs.Workers)
	}
	for name, st := range map[string]StageStats{"graph": bs.Graph, "text": bs.TextIndex, "pagerank": bs.PageRank} {
		if st.Items != eng.NumNodes() {
			t.Errorf("%s stage items = %d, want %d", name, st.Items, eng.NumNodes())
		}
	}
	if s := bs.String(); s == "" {
		t.Error("BuildStats.String empty")
	}
}

// TestBuildStatsNoIndex: DefaultConfig builds no path index, so the startup
// line names no pathindex stage.
func TestBuildStatsNoIndex(t *testing.T) {
	eng, err := buildTestBuilder(t, 10, 20).Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.BuildStats().String(); strings.Contains(s, "pathindex") {
		t.Errorf("BuildStats.String() = %q reports a path-index stage", s)
	}
}

// TestBuildContextPreCancelled: a context that is already done on entry
// yields no work and an error wrapping the context's error.
func TestBuildContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := buildTestBuilder(t, 5, 10).BuildContext(ctx, DefaultConfig())
	if eng != nil {
		t.Fatal("cancelled build returned an engine")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildContextCancelMidBuild cancels shortly after the build starts;
// with a dataset this size the index stages are still running, so the
// pipeline must abort and surface the context error. Run under -race (CI's
// bench-smoke job and `make race` do) this also certifies the stage DAG's
// synchronization on the cancellation path.
func TestBuildContextCancelMidBuild(t *testing.T) {
	b := buildTestBuilder(t, 120, 600)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Microsecond)
		cancel()
	}()
	cfg := DefaultConfig()
	cfg.Workers = 4
	eng, err := b.BuildContext(ctx, cfg)
	if err == nil {
		// The machine outran the cancel; nothing to assert beyond a usable
		// engine, which the determinism test already covers.
		t.Skip("build finished before cancellation fired")
	}
	if eng != nil {
		t.Fatal("cancelled build returned an engine alongside its error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildContextDeadline: a deadline already expired maps to the same
// contract with context.DeadlineExceeded.
func TestBuildContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := buildTestBuilder(t, 5, 10).BuildContext(ctx, DefaultConfig()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
