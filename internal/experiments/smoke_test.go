package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.golden from this run")

// TestAllExperimentsQuick runs every id `tackbench list` prints in quick
// mode and compares each rendered table byte for byte with
// testdata/quick/<id>.golden: the simulations are deterministic, so any
// difference is a behaviour change in the engine or the substrate. A PR
// that means to move a table regenerates it with
//
//	go test ./internal/experiments -run TestAllExperimentsQuick -update
//
// and says so. The simulations are single-goroutine, so the -short race
// job skips them.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Table == "" {
				t.Fatal("empty table")
			}
			got := r.String()
			path := filepath.Join("testdata", "quick", id+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				line, g, w := firstDiff(got, string(want))
				t.Fatalf("%s differs from %s at line %d:\n got: %s\nwant: %s", id, path, line, g, w)
			}
		})
	}
}

// firstDiff returns the first line (1-based) at which two unequal tables
// differ, with that line from each side ("<end of table>" where one side
// ran out).
func firstDiff(got, want string) (line int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		g, w = "<end of table>", "<end of table>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || (i >= len(gl) && i >= len(wl)) {
			return i + 1, g, w
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id should error")
	}
}
