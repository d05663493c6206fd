package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule writes a two-package module: fleet.Stamp reads the wall
// clock (fleet is a wall-clock service layer, so that read is allowed
// there), and package sim, a simulation package, has the given source.
func writeModule(t *testing.T, sim string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"fleet/fleet.go": `package fleet

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"sim/sim.go": sim,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const simHead = `package sim

import "example.com/m/fleet"

`

// Each variant keeps every function on the same lines: Reported's
// call on 5, Sanctioned's directive on 8, Unexplained's on 13 and
// Clean's on 18.
const (
	reported = `func Reported() int64 { return fleet.Stamp() }

func Sanctioned() int64 {
	//hbplint:ignore determinism the stamp labels a log line and never reaches simulation state
	return fleet.Stamp()
}

func Unexplained() int64 {
	//hbplint:ignore determinism
	return fleet.Stamp()
}

func Clean() int64 {
	//hbplint:ignore determinism left behind after the clock read moved away
	return 1
}
`
	quiet = `func Reported() int64 { return 0 }

func Sanctioned() int64 {
	//hbplint:ignore determinism the stamp labels a log line and never reaches simulation state
	return fleet.Stamp()
}

func Unexplained() int64 {
	// no directive, no clock
	return 0
}

func Clean() int64 {
	// no directive
	return 1
}
`
	staleOnly = `func Reported() int64 { return 0 }

func Sanctioned() int64 {
	//hbplint:ignore determinism the stamp labels a log line and never reaches simulation state
	return fleet.Stamp()
}

func Unexplained() int64 {
	// no directive, no clock
	return 0
}

func Clean() int64 {
	//hbplint:ignore determinism left behind after the clock read moved away
	return 1
}
`
)

// TestDriverOnModule runs hbplint through go list on a real module: the
// impurity of fleet.Stamp reaches sim's call sites as a fact from
// another package, a directive with a reason silences one, a directive
// without one is itself reported, a directive on a clean line is
// reported only under -stale, and the exit status is non-zero exactly
// when something is reported.
func TestDriverOnModule(t *testing.T) {
	const (
		impure    = "sim/sim.go:5:32: determinism: call to example.com/m/fleet.Stamp, which is impure (reads wall-clock time via time.Now)"
		noReason  = "sim/sim.go:13:2: determinism: hbplint:ignore determinism directive is missing a reason"
		staleLine = "sim/sim.go:18:2: determinism: stale hbplint:ignore determinism"
	)
	for _, tc := range []struct {
		name  string
		sim   string
		stale bool
		want  []string
	}{
		{"reported", reported, false, []string{impure, noReason}},
		{"reported -stale", reported, true, []string{impure, noReason, staleLine}},
		{"quiet", quiet, false, nil},
		{"quiet -stale", quiet, true, nil},
		{"stale only", staleOnly, false, nil},
		{"stale only -stale", staleOnly, true, []string{staleLine}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, simHead+tc.sim)
			args := []string{"./..."}
			if tc.stale {
				args = append([]string{"-stale"}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := run(dir, args, &stdout, &stderr)
			var got []string
			if out := strings.TrimSpace(stdout.String()); out != "" {
				got = strings.Split(out, "\n")
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s\nstderr: %s", len(got), len(tc.want), stdout.String(), stderr.String())
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("diagnostic %d = %q, want prefix %q", i, got[i], w)
				}
			}
			if wantCode := map[bool]int{false: 0, true: 1}[len(tc.want) > 0]; code != wantCode {
				t.Errorf("exit status %d, want %d (stderr: %s)", code, wantCode, stderr.String())
			}
		})
	}
}

// TestIgnoresListsLoadedFiles lists the directives of the packages the
// patterns match, import-path patterns included.
func TestIgnoresListsLoadedFiles(t *testing.T) {
	dir := writeModule(t, simHead+reported)
	for _, pattern := range []string{"./...", "example.com/m/sim"} {
		var stdout, stderr bytes.Buffer
		code := run(dir, []string{"-ignores", pattern}, &stdout, &stderr)
		want := "sim/sim.go:8: [determinism] the stamp labels a log line and never reaches simulation state\n" +
			"sim/sim.go:13: [determinism] MISSING REASON\n" +
			"sim/sim.go:18: [determinism] left behind after the clock read moved away\n" +
			"3 active suppressions\n"
		if stdout.String() != want || code != 1 {
			t.Errorf("-ignores %s: exit %d, output\n%s\nwant exit 1, output\n%s", pattern, code, stdout.String(), want)
		}
	}
}
