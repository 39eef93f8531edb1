package snapshot

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// TestStressScale20 builds the ~1.39M-AS stress world (scale 20), round-
// trips it through a snapshot (topology only), and answers a reachability
// query from the mapping.
// This is the capacity envelope the README's scale table quotes. It takes
// minutes and several GB of RSS, so it only runs when FLATNET_STRESS=1.
func TestStressScale20(t *testing.T) {
	if os.Getenv("FLATNET_STRESS") == "" {
		t.Skip("set FLATNET_STRESS=1 to run the scale-20 stress build")
	}
	start := time.Now()
	in, err := topogen.Generate(topogen.Internet2020(20))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %d ASes, %d links in %v",
		in.Graph.NumASes(), in.Graph.NumLinks(), time.Since(start).Round(time.Millisecond))

	path := filepath.Join(t.TempDir(), "world20.snap")
	start = time.Now()
	if err := WriteFile(path, &World{Scale: 20, Internets: map[int]*topogen.Internet{2020: in}}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot: %.1f MiB written in %v", float64(st.Size())/(1<<20), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got := rd.Internet(2020)
	if got == nil {
		t.Fatal("no 2020 internet in snapshot")
	}
	sim := bgpsim.New(got.Graph)
	count, err := sim.ReachabilityCount(bgpsim.Config{Origin: got.Clouds["Google"]})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if count < got.Graph.NumASes()/2 {
		t.Errorf("Google reaches only %d of %d ASes", count, got.Graph.NumASes())
	}
	t.Logf("mmap load + first reachability query: Google reaches %d of %d ASes in %v",
		count, got.Graph.NumASes(), elapsed.Round(time.Millisecond))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("heap in use: %.1f GiB, RSS: %s", float64(ms.HeapInuse)/(1<<30), vmRSS(t))
}

// vmRSS reads the process's resident set size from /proc (linux-only; the
// stress test is gated anyway).
func vmRSS(t *testing.T) string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "VmRSS:") {
			return strings.TrimSpace(strings.TrimPrefix(sc.Text(), "VmRSS:"))
		}
	}
	return "unknown"
}
