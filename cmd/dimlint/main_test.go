package main

import (
	"strings"
	"testing"
)

// TestExitCodes pins the driver's contract: 0 clean, 2 on diagnostics,
// 1 on a driver error. A bad argument is a driver error, so it must never
// exit with the code that means "diagnostics found".
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name, dir  string
		args       []string
		want       int
		wantStderr string
	}{
		{name: "clean", args: []string{"dimprune/internal/event"}, want: 0},
		{name: "findings", dir: "../../internal/analysis/testdata/src", args: []string{"./hotpathiter"}, want: 2, wantStderr: "[hotpathiter] map iteration on the hot path"},
		{name: "unloadable pattern", args: []string{"./no/such/package"}, want: 1, wantStderr: "dimlint: "},
		{name: "unknown flag", args: []string{"-jsn", "dimprune/internal/event"}, want: 1, wantStderr: "dimlint takes no flags"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dir != "" {
				t.Chdir(tc.dir)
			}
			var stderr strings.Builder
			if got := run(tc.args, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantStderr, stderr.String())
			}
			if tc.wantStderr == "" && stderr.Len() > 0 {
				t.Errorf("unexpected stderr:\n%s", stderr.String())
			}
		})
	}
}
