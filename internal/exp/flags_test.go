package exp

import (
	"slices"
	"strconv"
	"testing"
)

// onArgs sets d to a value the binder accepts and a relation sees.
func onArgs(d *Flag) []string {
	switch {
	case d.Kind == BoolFlag:
		if d.Def != 0 {
			return []string{"-" + d.Name + "=false"}
		}
		return []string{"-" + d.Name}
	case d.Enum != nil:
		return []string{"-" + d.Name, d.Enum[len(d.Enum)-1]}
	case d.Kind == StringFlag:
		return []string{"-" + d.Name, "x"}
	}
	return []string{"-" + d.Name, strconv.FormatFloat(d.Def, 'f', -1, 64)}
}

// declOf returns t's declaration of name.
func declOf(t *Tool, name string) *Flag {
	return t.Flags[slices.IndexFunc(t.Flags, func(d *Flag) bool { return d.Name == name })]
}

// withPartners is args after the flags d requires, each set on.
func withPartners(t *Tool, d *Flag, args ...string) []string {
	var out []string
	for _, r := range d.Requires {
		out = append(out, onArgs(declOf(t, r))...)
	}
	return append(out, args...)
}

// TestFlagTablesWellFormed holds every table to its own rules (the
// root TestFlagTableRejection fails a numeric flag with no range): a
// range has a Max or the reason it has none, never both; only numeric
// flags have ranges; every relation names a flag of the same tool;
// names are unique; and no args parse to the defaults.
func TestFlagTablesWellFormed(t *testing.T) {
	for i := range Tools {
		tool := &Tools[i]
		seen := map[string]bool{}
		for _, d := range tool.Flags {
			if seen[d.Name] {
				t.Errorf("%s declares -%s twice", tool.Name, d.Name)
			}
			seen[d.Name] = true
			numeric := d.Kind == IntFlag || d.Kind == UintFlag || d.Kind == FloatFlag
			ranged := d.Max > d.Min || d.NoMax != ""
			switch {
			case numeric && d.Max != 0 && d.NoMax != "":
				t.Errorf("%s -%s declares both a Max and NoMax", tool.Name, d.Name)
			case !numeric && (ranged || d.Min != 0):
				t.Errorf("%s -%s is not numeric but declares a range", tool.Name, d.Name)
			}
		}
		for _, d := range tool.Flags {
			for _, r := range append(slices.Clip(d.Requires), d.Excludes...) {
				if !seen[r] {
					t.Errorf("%s -%s names -%s, which %s does not declare", tool.Name, d.Name, r, tool.Name)
				}
			}
		}
		if _, err := parse(tool, nil); err != nil {
			t.Errorf("%s: the defaults are refused: %v", tool.Name, err)
		}
	}
}

// TestFlagBoundsAccepted parses each range's ends and each accepted
// value in process: the binder must take them. No tool runs here, so
// a bound as large as attacksim's -slots ceiling costs nothing.
func TestFlagBoundsAccepted(t *testing.T) {
	for i := range Tools {
		tool := &Tools[i]
		for _, d := range tool.Flags {
			var values []string
			switch {
			case d.Enum != nil:
				values = d.Enum
			case d.Kind == BoolFlag || d.Kind == StringFlag:
				continue
			default:
				values = []string{strconv.FormatFloat(d.Min, 'f', -1, 64)}
				if d.NoMax == "" {
					values = append(values, strconv.FormatFloat(d.Max, 'f', -1, 64))
				}
			}
			for _, v := range values {
				args := withPartners(tool, d, "-"+d.Name, v)
				if _, err := parse(tool, args); err != nil {
					t.Errorf("%s %v: %v", tool.Name, args, err)
				}
			}
		}
	}
}

// TestProtocolEnumMatchesLineUp keeps clustersim's -protocol values in
// step with the machine world's line-up.
func TestProtocolEnumMatchesLineUp(t *testing.T) {
	tool := &Tools[slices.IndexFunc(Tools, func(t Tool) bool { return t.Name == "clustersim" })]
	names, err := ScaleProtocolNames("all")
	if err != nil {
		t.Fatal(err)
	}
	want := append(names, "all")
	if got := declOf(tool, "protocol").Enum; !slices.Equal(got, want) {
		t.Errorf("-protocol accepts %q, the line-up is %q", got, want)
	}
}
