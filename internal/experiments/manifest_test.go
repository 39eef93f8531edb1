package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs.sha256 from this run")

// manifestPath pins every output byte the registry produces at the CLI's
// default scale: one row per experiment's text ("<id>.txt", the bytes Run
// writes, which carry no timing line) and one per CSV table ("<name>.csv",
// the file `flatnet run -outdir` writes). Rows are in registry order.
const (
	manifestPath  = "testdata/outputs.sha256"
	manifestScale = 0.04987
)

// manifestRow is one hashed output.
type manifestRow struct{ name, sum string }

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// outputs runs the whole registry on one Env, in registry order, and hashes
// each experiment's text and each of its tables.
func outputs(t *testing.T, env *Env) []manifestRow {
	t.Helper()
	var rows []manifestRow
	for _, r := range Registry {
		var text bytes.Buffer
		tables, err := r.Run(env, &text)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		rows = append(rows, manifestRow{r.ID + ".txt", digest(text.Bytes())})
		if tables == nil {
			continue
		}
		for _, tbl := range tables() {
			var csv bytes.Buffer
			if err := tbl.WriteCSV(&csv); err != nil {
				t.Fatalf("%s/%s: %v", r.ID, tbl.Name, err)
			}
			rows = append(rows, manifestRow{tbl.Name + ".csv", digest(csv.Bytes())})
		}
	}
	return rows
}

// TestOutputManifest runs every experiment at the default scale and names
// each row of testdata/outputs.sha256 whose output moved, disappeared or is
// new. A change that moves an output on purpose rewrites the file with
//
//	go test ./internal/experiments -run TestOutputManifest -update
//
// and lists the rows it changed.
func TestOutputManifest(t *testing.T) {
	env, err := NewEnv(manifestScale)
	if err != nil {
		t.Fatal(err)
	}
	got := outputs(t, env)
	if *update {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "%s  %s\n", r.sum, r.name)
		}
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed row %q", manifestPath, line)
		}
		want[name] = sum
	}
	for _, r := range got {
		switch w, ok := want[r.name]; {
		case !ok:
			t.Errorf("%s: new output (sha256 %s), not in the manifest", r.name, r.sum)
		case w != r.sum:
			t.Errorf("%s moved: sha256 %s, manifest %s", r.name, r.sum, w)
		}
		delete(want, r.name)
	}
	for name := range want {
		t.Errorf("%s: in the manifest, but no experiment wrote it", name)
	}
}
