package exp

// Shared profiling support for the cmd/ tools. Importing this package
// gives every tool -cpuprofile and -memprofile flags; each tool calls
// StartProfiles right after flag.Parse and Exit (or Fail) instead of
// os.Exit, so profiles are flushed on every exit path.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

	stopProfiles func()
)

// StartProfiles begins CPU profiling if -cpuprofile was given. Call it
// once, after flag.Parse. The profiles are written by Exit (or by
// calling the returned stop function directly, for callers that manage
// their own exits).
func StartProfiles() (stop func(), err error) {
	var cpuOut *os.File
	if *cpuProfile != "" {
		cpuOut, err = os.Create(*cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	done := false
	stop = func() {
		if done {
			return
		}
		done = true
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
		if *memProfile != "" {
			out, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			out.Close()
		}
	}
	stopProfiles = stop
	return stop, nil
}

// Exit flushes any active profiles and exits with the given code. The
// tools use it in place of os.Exit so that -cpuprofile/-memprofile
// output survives error paths.
func Exit(code int) {
	if stopProfiles != nil {
		stopProfiles()
	}
	os.Exit(code)
}

// Fail prints err as the tool's "tool: err" diagnostic on stderr and
// exits with code through Exit.
func Fail(tool string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(code)
}
