package experiments

import "testing"

// TestAllExperimentsQuick smoke-runs every id `tackbench list` prints in
// quick mode, asserting they produce non-empty tables without error. The
// simulations are single-goroutine, so the -short race job skips them.
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
			t.Log("\n" + r.String())
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id should error")
	}
}
