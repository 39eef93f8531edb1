package flatnet_bench

import (
	"sync"
	"testing"

	"flatnet/internal/experiments"
	"flatnet/internal/topogen"
)

var (
	timelineOnce sync.Once
	timelineErr  error
)

// BenchmarkTimelineSeries computes the full 2015–2025 preset series —
// eleven worlds, ten growth deltas, four hierarchy-free point queries per
// world — at the benchmark scale. One op is the whole series, i.e.
// everything `flatnet timeline report` does before printing.
func BenchmarkTimelineSeries(b *testing.B) {
	// Fail fast (outside the timer) if the series itself is broken.
	timelineOnce.Do(func() { _, timelineErr = topogen.GenerateYear(topogen.TimelineFirstYear, benchScale) })
	if timelineErr != nil {
		b.Fatal(timelineErr)
	}
	b.ResetTimer()
	var nASes int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TimelineAt(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		nASes = rows[len(rows)-1].ASes
	}
	reportNsPerAS(b, nASes)
}
