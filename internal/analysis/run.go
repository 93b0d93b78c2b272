package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// ignoreDirective is one parsed "//sonic:ignore name reason" comment.
type ignoreDirective struct {
	Analyzer string
	File     string
	Line     int
	Reason   string
}

// ignorePrefix introduces a suppression comment. The directive applies
// to findings on its own line and on the line directly below it, so it
// works both as a trailing comment and as a lead-in line above the
// flagged statement or declaration.
const ignorePrefix = "//sonic:ignore"

// parseIgnores extracts the sonic:ignore directives of a file. A
// directive without a reason is itself reported as a finding (analyzer
// "ignore") so suppressions stay auditable, and so is one naming
// deadcode: dead code is reached or deleted, never kept by a comment.
func parseIgnores(fset *token.FileSet, file *ast.File, report func(Finding)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			rest, ok := strings.CutPrefix(text, ignorePrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			var name, reason string
			if len(fields) > 0 {
				name = fields[0]
				reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
			}
			var problem string
			switch {
			case name == "":
				problem = "sonic:ignore needs an analyzer name and a reason"
			case reason == "":
				problem = fmt.Sprintf("sonic:ignore %s needs a reason (why is this exempt?)", name)
			case name == DeadCode.Name:
				problem = "sonic:ignore deadcode suppresses nothing: reach it from a main or delete it"
			}
			if problem != "" {
				report(Finding{Analyzer: "ignore", File: pos.Filename, Line: pos.Line, Message: problem})
				continue
			}
			out = append(out, ignoreDirective{Analyzer: name, File: pos.Filename, Line: pos.Line, Reason: reason})
		}
	}
	return out
}

// Result is the outcome of one sonic-vet run.
type Result struct {
	// Findings are the active (unsuppressed) diagnostics; a non-empty
	// list fails the run.
	Findings []Finding
	// Suppressed are findings silenced by a sonic:ignore directive,
	// reported so suppressions stay visible.
	Suppressed []Finding
	// Counts maps analyzer name to active/suppressed finding counts for
	// every analyzer that ran (zeros included).
	Counts map[string]FindingCount
}

// FindingCount is the per-analyzer tally of one run.
type FindingCount struct {
	Findings   int
	Suppressed int
}

// Run executes the analyzers over the packages in dirs and applies the
// sonic:ignore directives. Paths in the result are relative to the
// module root.
func Run(l *Loader, analyzers []*Analyzer, dirs []string) (*Result, error) {
	res := &Result{Counts: make(map[string]FindingCount)}
	for _, a := range analyzers {
		res.Counts[a.Name] = FindingCount{}
	}

	var all []Finding
	var ignores []ignoreDirective
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		// Directives may sit in test files too (equivpin findings anchor
		// to declarations referenced from tests).
		for _, f := range append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...) {
			ignores = append(ignores, parseIgnores(l.Fset, f, func(fd Finding) { all = append(all, fd) })...)
		}
	}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: l.Fset, Pkgs: pkgs, loader: l}
		a.Run(pass)
		all = append(all, pass.findings...)
	}

	for _, f := range all {
		f.File = relPath(l.ModuleDir, f.File)
		if dir := matchIgnore(ignores, f); dir != nil {
			f.IgnoreReason = dir.Reason
			res.Suppressed = append(res.Suppressed, f)
			c := res.Counts[f.Analyzer]
			c.Suppressed++
			res.Counts[f.Analyzer] = c
			continue
		}
		res.Findings = append(res.Findings, f)
		c := res.Counts[f.Analyzer]
		c.Findings++
		res.Counts[f.Analyzer] = c
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

// matchIgnore finds a directive suppressing f: same file, same analyzer,
// on the finding's line or the line above it. The raw (absolute) file of
// the directive is compared against the finding's pre-relativized path
// via suffix match so both spellings work.
func matchIgnore(ignores []ignoreDirective, f Finding) *ignoreDirective {
	for i := range ignores {
		d := &ignores[i]
		if d.Analyzer != f.Analyzer {
			continue
		}
		if d.Line != f.Line && d.Line != f.Line-1 {
			continue
		}
		if filepath.Base(d.File) != filepath.Base(f.File) || !strings.HasSuffix(d.File, f.File) && d.File != f.File {
			continue
		}
		return d
	}
	return nil
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// WriteText prints findings, suppressions, and the per-analyzer count
// table in the human-readable format check.sh shows.
func (r *Result) WriteText(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintln(w, f.String())
	}
	if len(r.Suppressed) > 0 {
		fmt.Fprintf(w, "suppressed (%d):\n", len(r.Suppressed))
		for _, f := range r.Suppressed {
			fmt.Fprintf(w, "  %s:%d: [%s] %s (reason: %s)\n", f.File, f.Line, f.Analyzer, f.Message, f.IgnoreReason)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "analyzer\tfindings\tsuppressed\n")
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	totalF, totalS := 0, 0
	for _, n := range names {
		c := r.Counts[n]
		fmt.Fprintf(tw, "%s\t%d\t%d\n", n, c.Findings, c.Suppressed)
		totalF += c.Findings
		totalS += c.Suppressed
	}
	fmt.Fprintf(tw, "total\t%d\t%d\n", totalF, totalS)
	tw.Flush()
}
