package uldma_test

// The Makefile's named test targets (reachlint, shardparity,
// ringparity, ...) select their tests with -run lists. go test accepts
// a -run alternative that matches nothing without complaint, so a
// renamed or deleted test would silently drop out of its contract
// target. This check keeps every alternative pointing at a real test.

import (
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
