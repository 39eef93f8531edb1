package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flatnet/internal/bgpsim"
	"flatnet/internal/snapshot"
)

// A snapshot-loaded environment must be indistinguishable from the fresh one
// it was captured from: the experiments' rendered output — including the
// figures whose plans, rDNS, feed and traces the snapshot env re-derives
// from its world — must match byte for byte.
func TestSnapshotEnvMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot golden test builds trace corpora")
	}
	fresh := getEnv(t)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, fresh.World()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two loaded environments over the zero-copy Reader, exactly as
	// cmd/flatnet -snapshot serves it: one straight off the mapping, the
	// other after Verify has checksummed every section.
	envs := map[string]*Env{}
	for _, name := range []string{"mmap", "verified"} {
		rd, err := snapshot.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if name == "verified" {
			if err := rd.Verify(); err != nil {
				t.Fatal(err)
			}
		}
		if envs[name], err = NewEnvFromSnapshot(rd); err != nil {
			t.Fatal(err)
		}
	}

	// table1 exercises both presets' metrics; fig7 exercises the leak
	// simulator over the restored graphs; appA reads the trace corpora;
	// table3 reads the plans and the rDNS corpus; sec41 reads the BGP feed
	// and the trace corpora.
	for _, id := range []string{"table1", "fig7", "appA", "table3", "sec41"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var want bytes.Buffer
		if _, err := r.Run(fresh, &want); err != nil {
			t.Fatalf("%s on fresh env: %v", id, err)
		}
		for name, env := range envs {
			var got bytes.Buffer
			if _, err := r.Run(env, &got); err != nil {
				t.Fatalf("%s on %s snapshot env: %v", id, name, err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%s output differs between fresh and %s snapshot env\nfresh:\n%s\nsnapshot:\n%s",
					id, name, want.String(), got.String())
			}
		}
	}
}

// Trace-campaign builds for distinct keys must run concurrently (no coarse
// env lock), while every caller of the same year coalesces onto a single
// build. The hook holds both builds open until each has started; under a
// coarse lock the second build could never start and the test would time
// out.
func TestConcurrentTraceBuildsOverlapAndCoalesce(t *testing.T) {
	e, err := NewEnv(0.01425)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan2020(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan2015(); err != nil {
		t.Fatal(err)
	}

	var entered sync.WaitGroup
	entered.Add(2)
	barrier := make(chan struct{})
	e.traceBuildHook = func(key string) {
		entered.Done()
		<-barrier
	}
	release := make(chan struct{})
	go func() {
		entered.Wait()
		close(barrier)
		close(release)
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Eight same-year callers across all four clouds: one build, shared by
	// everyone. One different-year caller: a second, concurrent build.
	for i := 0; i < 8; i++ {
		cloud := Clouds()[i%len(Clouds())]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Traces(2020, cloud, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Traces(2015, "Google", 0); err != nil {
			errs <- err
		}
	}()

	select {
	case <-release:
	case <-time.After(2 * time.Minute):
		t.Fatal("the two trace builds never overlapped: builds are serialized by a coarse lock")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.builds("destsweep/"); got != 2 {
		t.Fatalf("ran %d trace builds, want exactly 2 (one per year)", got)
	}
	// Every 2020 cloud must now be served from cache without new builds.
	e.traceBuildHook = nil
	for _, c := range Clouds() {
		if _, err := e.Traces(2020, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.builds("destsweep/"); got != 2 {
		t.Fatalf("cache misses after the shared build: %d builds, want 2", got)
	}
}

// A failed trace build must not be memoized: the next call retries and
// succeeds.
func TestTraceBuildErrorRetried(t *testing.T) {
	e, err := NewEnv(0.01425)
	if err != nil {
		t.Fatal(err)
	}
	e.traceBuildHook = func(string) { panic("induced build failure") }
	if _, err := e.Traces(2020, "Google", 2); err == nil {
		t.Fatal("induced build failure did not surface as an error")
	}
	e.traceBuildHook = nil
	tr, err := e.Traces(2020, "Google", 2)
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if want := 2 * e.In2020.Graph.NumASes(); tr.VMs != 2 || len(tr.facts) != want {
		t.Fatalf("retry returned %d VM groups and %d facts, want 2 and %d", tr.VMs, len(tr.facts), want)
	}
	if got := e.builds("destsweep/"); got != 1 {
		t.Fatalf("ran %d successful builds, want 1", got)
	}
}

// One build per year serves every VM count: for each paper cloud, every
// count from 1 to its default is a prefix of the default campaign's facts,
// taken without a new build, and the first 4 groups' facts equal those of a
// campaign folded from just those VMs. A count above the default is refused
// with an error naming the default.
func TestTracesArePrefixesOfOneBuild(t *testing.T) {
	e := getEnv(t).Fresh()
	for _, c := range Clouds() {
		def, err := e.Traces(2020, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		perVM := len(def.facts) / def.VMs
		for n := 1; n <= def.VMs; n++ {
			tr, err := e.Traces(2020, c, n)
			if err != nil {
				t.Fatalf("%s, %d VMs: %v", c, n, err)
			}
			if tr.VMs != n || len(tr.facts) != n*perVM || &tr.facts[0] != &def.facts[0] {
				t.Fatalf("%s, %d VMs: %d groups, not a prefix of the %d-VM default", c, n, tr.VMs, def.VMs)
			}
		}
		_, err = e.Traces(2020, c, def.VMs+1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %d VM groups", def.VMs)) {
			t.Errorf("%s, %d VMs (default %d): err %v, want a refusal naming the default", c, def.VMs+1, def.VMs, err)
		}
	}
	if got := e.builds("destsweep/"); got != 1 {
		t.Errorf("%d trace builds, want 1 for the year", got)
	}
	plan, err := e.Plan2020()
	if err != nil {
		t.Fatal(err)
	}
	visit, direct, err := foldCampaigns(plan, 2020, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bgpsim.ForEachOrigin(plan.Internet().Graph, visit); err != nil {
		t.Fatal(err)
	}
	for i, c := range Clouds() {
		tr, err := e.Traces(2020, c, direct[i].VMs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, direct[i]) {
			t.Errorf("%s: the default campaign's first %d groups differ from a campaign of those VMs alone", c, tr.VMs)
		}
	}
}

// §4.1, §5 (a 4-VM and a default campaign of two clouds), the ablation and
// Appendix A all read the year's campaign, and §4.1 and the ablation its
// feed view: one destination sweep builds both and serves them all.
func TestSec5BuildsOneTraceCampaign(t *testing.T) {
	e := getEnv(t).Fresh()
	for _, id := range []string{"sec41", "sec5", "ablation", "appA"} {
		r, _ := ByID(id)
		render(t, e, r)
	}
	if got := e.builds("destsweep/2020"); got != 1 {
		t.Errorf("sec41, sec5, ablation and appA ran %d destination sweeps for 2020, want 1", got)
	}
	if got := e.builds(""); got != e.builds("destsweep/2020")+e.builds("plan/2020") {
		t.Errorf("the trace experiments built %d results, want only the 2020 plan and sweep", got)
	}
}
