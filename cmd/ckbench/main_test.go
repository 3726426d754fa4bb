package main

import "testing"

// TestParseExp: a typo in -exp must be an error, not a silent run of
// nothing.
func TestParseExp(t *testing.T) {
	for _, tc := range []struct {
		list string
		ok   bool
	}{
		{"all", true},
		{"t2", true},
		{"t2, s52a,a1", true},
		{"rec,orch,fork", true},
		{"t9", false},
		{"T2", false},
		{"t2,t9", false},
		{"", false},
		{"t2,", false},
	} {
		want, err := parseExp(tc.list)
		if (err == nil) != tc.ok {
			t.Errorf("parseExp(%q) error = %v, want ok %v", tc.list, err, tc.ok)
		}
		if err == nil && len(want) == 0 {
			t.Errorf("parseExp(%q) selected nothing", tc.list)
		}
	}
}
