package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expect.txt golden files from current analyzer output")

const fixturePrefix = "internal/analysis/testdata/src/"

// renderResult flattens a Result into the golden format: one String()
// line per active finding, one SUPPRESSED line per suppressed finding,
// with the fixture-root prefix trimmed so goldens stay readable.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, f := range res.Findings {
		b.WriteString(strings.TrimPrefix(f.String(), fixturePrefix))
		b.WriteByte('\n')
	}
	for _, f := range res.Suppressed {
		fmt.Fprintf(&b, "SUPPRESSED: %s:%d: [%s] %s (%s)\n",
			strings.TrimPrefix(f.File, fixturePrefix), f.Line, f.Analyzer, f.Message, f.IgnoreReason)
	}
	return b.String()
}

// TestAnalyzerGolden runs each analyzer over its positive (bad) and
// negative (ok) fixture package, with any packages under it, and
// compares against the fixture's expect.txt. Run with -update to regenerate the goldens.
func TestAnalyzerGolden(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{LockScope, "lockscope_bad"},
		{LockScope, "lockscope_ok"},
		{EquivPin, "equivpin_bad"},
		{EquivPin, "equivpin_ok"},
		{GlobalRand, "globalrand_bad"},
		{GlobalRand, "globalrand_ok"},
		{GlobalRand, "ignorefix"},
		{DeadCode, "deadcode_bad"},
		{DeadCode, "deadcode_ok"},
		{DeadCode, "deadcode_ignore_bad"},
	}

	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dirs, err := l.ExpandPatterns([]string{fixturePrefix + tc.fixture + "/..."})
			if err != nil {
				t.Fatalf("ExpandPatterns: %v", err)
			}
			res, err := Run(l, []*Analyzer{tc.analyzer}, dirs)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := renderResult(res)

			golden := filepath.Join("testdata", "src", tc.fixture, "expect.txt")
			if *update {
				if got == "" {
					os.Remove(golden)
					return
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want := ""
			if data, err := os.ReadFile(golden); err == nil {
				want = string(data)
			} else if !os.IsNotExist(err) {
				t.Fatalf("read golden: %v", err)
			}
			if got != want {
				t.Errorf("%s over %s: output mismatch\n--- got ---\n%s--- want (%s) ---\n%s",
					tc.analyzer.Name, tc.fixture, got, golden, want)
			}

			// Structural sanity independent of the golden text: _bad
			// fixtures must produce findings, _ok fixtures must not.
			switch {
			case strings.HasSuffix(tc.fixture, "_bad") && len(res.Findings) == 0:
				t.Errorf("%s produced no findings on %s; the analyzer lost its catch", tc.analyzer.Name, tc.fixture)
			case strings.HasSuffix(tc.fixture, "_ok") && len(res.Findings) > 0:
				t.Errorf("%s produced %d findings on compliant fixture %s", tc.analyzer.Name, len(res.Findings), tc.fixture)
			}
		})
	}
}

// TestIgnoreRequiresReason pins the directive contract: a reasoned
// directive suppresses (trailing and line-above forms both), while a
// reasonless directive is itself a finding and suppresses nothing.
func TestIgnoreRequiresReason(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	res, err := Run(l, []*Analyzer{GlobalRand}, []string{fixturePrefix + "ignorefix"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := len(res.Suppressed); got != 2 {
		t.Errorf("suppressed = %d, want 2 (trailing + line-above directives)", got)
	}
	for _, f := range res.Suppressed {
		if f.IgnoreReason == "" {
			t.Errorf("suppressed finding %s has no recorded reason", f)
		}
	}

	var gotIgnore, gotActive bool
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "ignore":
			gotIgnore = true
		case "globalrand":
			gotActive = true
		}
	}
	if !gotIgnore {
		t.Errorf("reasonless sonic:ignore directive was not reported as a finding; got %v", res.Findings)
	}
	if !gotActive {
		t.Errorf("reasonless sonic:ignore directive suppressed the underlying finding; got %v", res.Findings)
	}
}

// TestRepoIsVetClean is the self-check: the full analyzer suite over the
// whole repository must come back with zero active findings, exactly as
// check.sh and CI enforce. Every suppression must carry a reason.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	res, err := Run(l, All(), dirs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
	for _, f := range res.Suppressed {
		if f.IgnoreReason == "" {
			t.Errorf("suppression without reason: %s", f)
		}
	}
}

// TestSerialLegSelectsPinTests holds check.sh's GOMAXPROCS=1 leg to
// equivpin's naming rule: its -run pattern must hold every word of
// pinTestName, so no pin test escapes the serial run.
func TestSerialLegSelectsPinTests(t *testing.T) {
	script, err := os.ReadFile("../../scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	leg := regexp.MustCompile(`GOMAXPROCS=1 go test -run '([^']*)'`).FindSubmatch(script)
	if leg == nil {
		t.Fatal("scripts/check.sh has no GOMAXPROCS=1 go test -run leg")
	}
	selected := make(map[string]bool)
	for _, w := range strings.Split(string(leg[1]), "|") {
		selected[w] = true
	}
	for _, w := range strings.Split(pinTestName.String(), "|") {
		if !selected[w] {
			t.Errorf("check.sh's GOMAXPROCS=1 leg (-run %q) does not select pin tests named %q", leg[1], w)
		}
	}
}
