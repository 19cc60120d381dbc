package uldma_test

// The rejection tests generated from the tools' flag tables
// (internal/exp/tools.go): every invocation a declaration makes
// nonsense must exit 2 with empty stdout and a stderr that names the
// flag. The range ends themselves are accepted in process
// (internal/exp TestFlagBoundsAccepted), so no tool ever runs at a
// bound here.

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"uldma/internal/exp"
)

// flagOn sets d to a value the binder accepts and a relation sees.
func flagOn(d *exp.Flag) []string {
	switch {
	case d.Kind == exp.BoolFlag:
		if d.Def != 0 {
			return []string{"-" + d.Name + "=false"}
		}
		return []string{"-" + d.Name}
	case d.Enum != nil:
		return []string{"-" + d.Name, d.Enum[len(d.Enum)-1]}
	case d.Kind == exp.StringFlag:
		return []string{"-" + d.Name, "x"}
	}
	return []string{"-" + d.Name, num(d.Def)}
}

func num(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

func numeric(d *exp.Flag) bool {
	return d.Kind == exp.IntFlag || d.Kind == exp.UintFlag || d.Kind == exp.FloatFlag
}

// rejection is one generated invocation and the flag its diagnostic
// must name.
type rejection struct {
	flag string
	args []string
}

// generatedRejections lists, for every flag of tool, the invocations
// its declaration refuses: min−1 and max+1 of a range (with the flags
// it requires set), an unknown value of an enum, the flag without the
// flags it requires, and the flag with each flag it excludes.
func generatedRejections(tool exp.Tool) []rejection {
	decl := map[string]*exp.Flag{}
	for _, d := range tool.Flags {
		decl[d.Name] = d
	}
	partners := func(d *exp.Flag, args ...string) []string {
		var out []string
		for _, r := range d.Requires {
			out = append(out, flagOn(decl[r])...)
		}
		return append(out, args...)
	}
	var cases []rejection
	for _, d := range tool.Flags {
		switch {
		case d.Enum != nil:
			bad := "bogus"
			for n := 0; d.Kind != exp.StringFlag; n++ {
				if bad = strconv.Itoa(n); !slices.Contains(d.Enum, bad) {
					break
				}
			}
			cases = append(cases, rejection{d.Name, partners(d, "-"+d.Name, bad)})
		case numeric(d):
			cases = append(cases, rejection{d.Name, partners(d, "-"+d.Name, num(d.Min-1))})
			if d.NoMax == "" {
				cases = append(cases, rejection{d.Name, partners(d, "-"+d.Name, num(d.Max+1))})
			}
		}
		if len(d.Requires) > 0 {
			cases = append(cases, rejection{d.Name, flagOn(d)})
		}
		for _, x := range d.Excludes {
			cases = append(cases, rejection{x, append(partners(d, flagOn(d)...), partners(decl[x], flagOn(decl[x])...)...)})
		}
	}
	return cases
}

// TestFlagTableRejection walks every declared flag of every tool and
// runs each generated invocation against the built tool, one at a
// time, in a scratch directory. A numeric flag with no declared range
// fails it: there would be nothing to generate.
func TestFlagTableRejection(t *testing.T) {
	dir := buildTools(t)
	for _, tool := range exp.Tools {
		for _, d := range tool.Flags {
			if numeric(d) && d.Enum == nil && d.Max <= d.Min && d.NoMax == "" {
				t.Errorf("%s -%s is numeric with no declared range (set Min and Max, or NoMax with its reason)", tool.Name, d.Name)
			}
		}
		for _, c := range generatedRejections(tool) {
			tool, c := tool, c
			t.Run(tool.Name+" "+strings.Join(c.args, " "), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(dir, tool.Name), c.args...)
				cmd.Dir = t.TempDir()
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				err := cmd.Run()
				if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
					t.Fatalf("%s %q: %v, want exit 2\n%s", tool.Name, c.args, err, stderr.String())
				}
				if stdout.Len() > 0 {
					t.Fatalf("%s %q printed before rejecting its flags:\n%s", tool.Name, c.args, stdout.String())
				}
				if !strings.Contains(stderr.String(), "-"+c.flag) {
					t.Fatalf("%s %q: stderr does not name -%s:\n%s", tool.Name, c.args, c.flag, stderr.String())
				}
			})
		}
	}
}
