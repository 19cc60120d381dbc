package exp

// The tools' one flag binder. Every flag of the seven cmd/ tools is
// declared once in Tools (tools.go): its kind, default, range or
// accepted values, and its relations to other flags. Bind parses a
// tool's command line against that declaration and checks it whole; the
// first violation exits 2 with a "tool: -flag value: reason" diagnostic
// before anything is printed or any world is built.

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Kind is a flag's value type.
type Kind int

const (
	IntFlag    Kind = iota // int
	UintFlag               // uint64
	FloatFlag              // float64
	BoolFlag               // bool
	StringFlag             // string, default "" (always accepted: unset)
)

// Flag declares one command-line flag.
type Flag struct {
	Name, Usage string
	Kind        Kind
	// Def is a numeric flag's default, or 1 for a bool that defaults on.
	Def float64
	// Min and Max bound a numeric flag, both inclusive. A flag with no
	// upper bound gives the reason in NoMax instead of a Max.
	Min, Max float64
	NoMax    string
	// Why, when set, follows a range refusal as its reason.
	Why string
	// Enum, when set, lists the values the flag accepts in place of a
	// range.
	Enum []string
	// Requires lists the flags this one needs; Excludes the flags it
	// cannot combine with. A relation sees a flag only when the user
	// set it explicitly, and a bool or string flag only when it is set
	// away from its default: there it selects nothing.
	Requires, Excludes []string
}

// Tool is one cmd/ tool's flag table, in check order.
type Tool struct {
	Name  string
	Flags []*Flag
}

// Flags is a tool's parsed and checked command line.
type Flags struct{ fs *flag.FlagSet }

// Bind parses the named tool's command line (os.Args[1:]) against its
// table in Tools and applies every range and relation: nonsense exits
// 2 before anything runs. It then starts the -cpuprofile/-memprofile
// profiles, records the -trace-out settings, and answers -list by
// printing the registry and exiting. The tool ends through Finish (or
// Fail).
func Bind(tool string) *Flags {
	f, err := parse(&Tools[slices.IndexFunc(Tools, func(t Tool) bool { return t.Name == tool })], os.Args[1:])
	if err != nil {
		Fail(tool, 2, err)
	}
	if err := startProfiles(f.Str("cpuprofile"), f.Str("memprofile")); err != nil {
		Fail(tool, 2, err)
	}
	traceOut, traceCap = f.Str("trace-out"), f.Int("trace-cap")
	if f.fs.Lookup("list") != nil && f.Bool("list") {
		fmt.Print(List())
		Exit(0)
	}
	return f
}

// Finish ends a tool's run: a run error exits 1 with the tool's
// diagnostic; otherwise it writes the -trace-out document and the
// profiles.
func (f *Flags) Finish(err error) {
	if err == nil {
		err = flushTrace()
	}
	if err != nil {
		Fail(f.fs.Name(), 1, err)
	}
	stopProfiles()
}

// parse registers t's flags on a fresh set, parses args and checks the
// result. The flag package itself answers -h and refuses unknown flags
// and malformed values, with exit status 2.
func parse(t *Tool, args []string) (*Flags, error) {
	fs := flag.NewFlagSet(t.Name, flag.ExitOnError)
	for _, d := range t.Flags {
		switch d.Kind {
		case IntFlag:
			fs.Int(d.Name, int(d.Def), d.Usage)
		case UintFlag:
			fs.Uint64(d.Name, uint64(d.Def), d.Usage)
		case FloatFlag:
			fs.Float64(d.Name, d.Def, d.Usage)
		case BoolFlag:
			fs.Bool(d.Name, d.Def != 0, d.Usage)
		case StringFlag:
			fs.String(d.Name, "", d.Usage)
		}
	}
	_ = fs.Parse(args) // ExitOnError: any refusal has exited
	f := &Flags{fs}
	return f, f.check(t)
}

// check applies each flag's range and relations, in table order.
func (f *Flags) check(t *Tool) error {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	on := func(name string) bool {
		fl := f.fs.Lookup(name)
		switch f.get(name).(type) {
		case bool, string:
			return set[name] && fl.Value.String() != fl.DefValue
		}
		return set[name]
	}
	for _, d := range t.Flags {
		if err := d.inRange(f.fs.Lookup(d.Name).Value.String()); err != nil {
			return err
		}
		for _, r := range d.Requires {
			if on(d.Name) && !on(r) {
				return fmt.Errorf("-%s needs -%s", d.Name, r)
			}
		}
		for _, x := range d.Excludes {
			if on(d.Name) && on(x) {
				return fmt.Errorf("-%s cannot combine with -%s", x, d.Name)
			}
		}
	}
	return nil
}

// inRange checks a value, as the flag package prints it, against d's
// accepted values or numeric range.
func (d *Flag) inRange(v string) error {
	switch {
	case d.Kind == BoolFlag || d.Kind == StringFlag && (d.Enum == nil || v == ""), slices.Contains(d.Enum, v):
		return nil
	case d.Enum != nil:
		if d.Kind == StringFlag {
			v = strconv.Quote(v)
		}
		return fmt.Errorf("-%s %s: want one of %s", d.Name, v, strings.Join(d.Enum, ", "))
	}
	x, _ := strconv.ParseFloat(v, 64)
	var reason string
	switch {
	case !(x >= d.Min): // NaN included
		reason = "need at least " + strconv.FormatFloat(d.Min, 'f', -1, 64)
	case d.NoMax == "" && x > d.Max:
		reason = "need at most " + strconv.FormatFloat(d.Max, 'f', -1, 64)
	default:
		return nil
	}
	if d.Why != "" {
		reason += " (" + d.Why + ")"
	}
	return fmt.Errorf("-%s %s: %s", d.Name, v, reason)
}

func (f *Flags) get(name string) any { return f.fs.Lookup(name).Value.(flag.Getter).Get() }

// Int returns the value of the int flag name.
func (f *Flags) Int(name string) int { return f.get(name).(int) }

// Uint returns the value of the uint64 flag name.
func (f *Flags) Uint(name string) uint64 { return f.get(name).(uint64) }

// Float returns the value of the float64 flag name.
func (f *Flags) Float(name string) float64 { return f.get(name).(float64) }

// Bool returns the value of the bool flag name.
func (f *Flags) Bool(name string) bool { return f.get(name).(bool) }

// Str returns the value of the string flag name.
func (f *Flags) Str(name string) string { return f.get(name).(string) }

// Args returns the arguments after the flags.
func (f *Flags) Args() []string { return f.fs.Args() }
