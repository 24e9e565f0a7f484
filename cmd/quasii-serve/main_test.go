package main

import "testing"

// TestResolveRole covers -role × -replicate-from × -data-dir ×
// -dump-metrics: the role each combination runs as, or that it is refused.
func TestResolveRole(t *testing.T) {
	const leaderURL, dir = "http://leader:8080", "/var/lib/quasii"
	for _, tc := range []struct {
		role, from, dir string
		dump            bool
		want            string // "" = refused
	}{
		{"", "", "", false, "standalone"},
		{"", "", "", true, "standalone"},
		{"", "", dir, false, "leader"},
		{"", "", dir, true, "leader"},
		{"", leaderURL, dir, false, "follower"},
		{"", leaderURL, dir, true, ""},
		{"", leaderURL, "", false, ""},
		{"standalone", "", "", false, "standalone"},
		{"standalone", "", dir, false, "standalone"}, // durable, ships no WAL
		{"standalone", "", dir, true, "standalone"},
		{"standalone", leaderURL, dir, false, ""},
		{"leader", "", dir, false, "leader"},
		{"leader", "", dir, true, "leader"},
		{"leader", "", "", false, ""},
		{"leader", leaderURL, dir, false, "leader"},
		{"follower", leaderURL, dir, false, "follower"},
		{"follower", leaderURL, dir, true, ""},
		{"follower", "", dir, false, ""},
		{"follower", leaderURL, "", false, ""},
		{"primary", "", dir, false, ""},
	} {
		got, err := resolveRole(tc.role, tc.from, tc.dir, tc.dump)
		if tc.want == "" {
			if err == nil {
				t.Errorf("-role %q -replicate-from %q -data-dir %q -dump-metrics=%v: resolved %q, want refused",
					tc.role, tc.from, tc.dir, tc.dump, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("-role %q -replicate-from %q -data-dir %q -dump-metrics=%v: (%q, %v), want %q",
				tc.role, tc.from, tc.dir, tc.dump, got, err, tc.want)
		}
	}
}
