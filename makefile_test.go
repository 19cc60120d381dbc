package uldma_test

// The Makefile's named test targets (reachlint, shardparity,
// ringparity, ...) select their tests with -run lists. go test accepts
// a -run alternative that matches nothing without complaint, so a
// renamed or deleted test would silently drop out of its contract
// target. This check keeps every alternative pointing at a real test,
// and TestDocsCiteExistingNames does the same for the make targets and
// tests the documents cite.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlag matches the -run argument of a recipe line.
var runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|(\S+))`)

// testFunc matches a top-level test or benchmark declaration.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)

// TestMakefileRunListsNameTests checks that every |-alternative of every
// -run pattern in the Makefile matches at least one Test or Benchmark
// function in the packages the same line tests. `-run XXX`, the bench
// target's way of running no test at all, is exempt.
func TestMakefileRunListsNameTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(mk), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || m[0] == "-run XXX" {
			continue
		}
		var pkgs []string
		for _, arg := range strings.Fields(line[strings.Index(line, m[0])+len(m[0]):]) {
			if strings.HasPrefix(arg, ".") {
				pkgs = append(pkgs, arg)
			}
		}
		names := testNames(t, pkgs)
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", n+1, alt, err)
				continue
			}
			checked++
			if !matchesAny(re, names) {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in %s", n+1, alt, strings.Join(pkgs, " "))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run list in the Makefile")
	}
	t.Logf("%d -run alternatives name tests", checked)
}

// testNames returns the Test and Benchmark functions declared in the
// _test.go files of the package directories pkgs.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("Makefile names package %s, which has no test files", pkg)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// docFiles are the documents whose code spans cite make targets and
// tests by name.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// codeSpan matches a fenced code block or an inline code span,
	// which may wrap across lines.
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	// makeCite matches `make X` inside a code span.
	makeCite = regexp.MustCompile(`\bmake\s+([A-Za-z][\w-]*)`)
	// testCite matches a test or benchmark name, or a -run prefix of
	// one, inside a code span.
	testCite = regexp.MustCompile(`\b(?:Test|Benchmark)\w*`)
	// makeTarget matches a rule's target at the start of a Makefile line.
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*):(?:[^=]|$)`)
)

// TestDocsCiteExistingNames checks that every `make X` in a code span
// of the documents names a Makefile target, and every Test or Benchmark
// name there matches at least one function, read as a go test -run
// pattern (so a prefix like TestPollSkip counts).
func TestDocsCiteExistingNames(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	var pkgs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(files) > 0 {
			pkgs = append(pkgs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(t, pkgs)

	cites := 0
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range codeSpan.FindAllIndex(src, -1) {
			span := string(src[loc[0]:loc[1]])
			line := 1 + strings.Count(string(src[:loc[0]]), "\n")
			for _, m := range makeCite.FindAllStringSubmatch(span, -1) {
				cites++
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` names no Makefile target", doc, line, m[1])
				}
			}
			for _, name := range testCite.FindAllString(span, -1) {
				cites++
				if !matchesAny(regexp.MustCompile(name), names) {
					t.Errorf("%s:%d: %s matches no Test or Benchmark function", doc, line, name)
				}
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no make target or test cited in the documents")
	}
	t.Logf("%d citations name existing targets and tests", cites)
}
