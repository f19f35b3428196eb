package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckArenaBaseline drives the arena guard's verdict against
// baselines derived from one measurement: equal passes, an entry the plan
// outgrows by more than the slack fails naming the model, and a missing
// entry fails naming the model.
func TestCheckArenaBaseline(t *testing.T) {
	got, err := measureArenaBytes()
	if err != nil {
		t.Fatal(err)
	}
	const victim = "tiny-resnet"
	if got[victim] == 0 {
		t.Fatalf("no %s in the measured set %v", victim, got)
	}
	with := func(edit func(map[string]int)) map[string]int {
		b := maps.Clone(got)
		edit(b)
		return b
	}
	for _, tc := range []struct {
		name     string
		baseline map[string]int
		wantErr  string // "" = pass
	}{
		{"equal", with(func(map[string]int) {}), ""},
		{"shrunk", with(func(b map[string]int) {
			// Planned is 1.25x this baseline: past the 10% slack.
			b[victim] = got[victim] * 4 / 5
		}), victim + ": planned arena"},
		{"missing", with(func(b map[string]int) { delete(b, victim) }), victim + ": no baseline entry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.baseline)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			err = checkArenaBaseline(path, got)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("guard failed on a passing baseline: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("guard passed, want a failure naming %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("guard error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}
