package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// runCLI drives the full CLI in-process and returns the exit code plus
// captured stdout/stderr. Subcommand FlagSets write their own diagnostics
// to os.Stderr, so these tests assert on codes and on run's output only.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown command", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"list", []string{"list"}, 0},
		{"run without ids", []string{"run"}, 2},
		{"run unknown flag", []string{"run", "-no-such-flag"}, 2},
		{"reach missing as", []string{"reach"}, 2},
		{"reach bad asn", []string{"reach", "-as", "nope"}, 2},
		{"leaks bad asn", []string{"leaks", "-as", "nope"}, 2},
		{"leaks zero trials", []string{"leaks", "-trials", "0"}, 2},
		{"leaks negative trials", []string{"leaks", "-trials", "-5"}, 2},
		{"collect zero vps", []string{"collect", "-vps", "0"}, 2},
		{"collect negative vps", []string{"collect", "-vps", "-1"}, 2},
		{"trace negative vms", []string{"trace", "-vms", "-3"}, 2},
		{"serve unknown flag", []string{"serve", "-no-such-flag"}, 2},
		{"serve extra arg", []string{"serve", "surprise"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, _ := runCLI(c.args...)
			if code != c.want {
				t.Errorf("run(%q) = %d, want %d", c.args, code, c.want)
			}
		})
	}
}

func TestRunUnknownCommandMessage(t *testing.T) {
	_, _, stderr := runCLI("frobnicate")
	if !strings.Contains(stderr, `unknown command "frobnicate"`) {
		t.Errorf("stderr = %q, want the unknown command named", stderr)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr = %q, want usage text", stderr)
	}
}

func TestRunUsageErrorPointsAtHelp(t *testing.T) {
	code, _, stderr := runCLI("run")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no experiment ids") || !strings.Contains(stderr, "flatnet help") {
		t.Errorf("stderr = %q, want the error plus a help pointer", stderr)
	}
}

func TestHelpGoesToStdout(t *testing.T) {
	code, stdout, stderr := runCLI("help")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "usage:") || stderr != "" {
		t.Errorf("help wrote stdout=%q stderr=%q; usage belongs on stdout", stdout, stderr)
	}
}

func TestListOutput(t *testing.T) {
	code, stdout, _ := runCLI("list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "fig4") {
		t.Errorf("list output %q does not mention fig4", stdout)
	}
}

func TestRuntimeErrorExitsOne(t *testing.T) {
	// A year no preset exists for fails at runtime, after flag parsing.
	code, _, stderr := runCLI("stats", "-year", "1800")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "unknown year") {
		t.Errorf("stderr = %q", stderr)
	}
}

// A version 1 snapshot is refused with the explicit error on every path
// that loads one — no silent fall-back to another decoder.
func TestV1SnapshotExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.snap")
	hdr := append([]byte("FLATSNAP"), 1, 0, 0, 0) // magic + version 1
	hdr = append(hdr, make([]byte, 12)...)        // scale + section count
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"snapshot", "info", path},
		{"run", "-snapshot", path, "fig2"},
		{"serve", "-snapshot", path},
	} {
		code, _, stderr := runCLI(args...)
		if code != 1 || !strings.Contains(stderr, "version 1 is no longer read") {
			t.Errorf("run(%q) = %d, stderr %q; want exit 1 with the version 1 error", args, code, stderr)
		}
	}
}

// A section table that fails its CRC is refused by `snapshot info`, with or
// without -verify, instead of listed with the lengths the corrupt table
// claims.
func TestSnapshotInfoRefusesCorruptTable(t *testing.T) {
	in, err := genPreset(0.01425, 2020)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := snapshot.WriteFile(path, &snapshot.World{Scale: 0.01425, Internets: map[int]*topogen.Internet{2020: in}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[24+16] ^= 0x5c // the first section's length, inside the CRC-guarded table
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"snapshot", "info", path},
		{"snapshot", "info", "-verify", path},
	} {
		code, _, stderr := runCLI(args...)
		if code != 1 || !strings.Contains(stderr, "header checksum mismatch") {
			t.Errorf("run(%q) = %d, stderr %q; want exit 1 with the header checksum error", args, code, stderr)
		}
	}
}

// `snapshot build` prints the sha256 it took from the bytes as it wrote
// them; that must be the digest of the file on disk.
func TestSnapshotBuildPrintsFileSHA256(t *testing.T) {
	path := filepath.Join(t.TempDir(), "world.snap")
	code, stdout, stderr := runCLI("snapshot", "build", "-scale", "0.01425", "-o", path)
	if code != 0 {
		t.Fatalf("snapshot build = %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("sha256 %x\n", sha256.Sum256(raw))
	if !strings.HasSuffix(stdout, want) {
		t.Fatalf("snapshot build printed %q; want it to end with the file's %q", stdout, want)
	}
}

func TestGenPreset(t *testing.T) {
	for _, year := range []int{2015, 2020} {
		in, err := genPreset(0.01425, year)
		if err != nil {
			t.Fatalf("year %d: %v", year, err)
		}
		if in.Graph.NumASes() < 500 {
			t.Errorf("year %d: only %d ASes", year, in.Graph.NumASes())
		}
	}
	if _, err := genPreset(0.01425, 1999); err == nil {
		t.Error("unknown year accepted")
	}
}
