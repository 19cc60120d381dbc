package exp

// Shared profiling support for the cmd/ tools. Every tool takes
// -cpuprofile and -memprofile flags (tools.go); Bind starts the
// profiles, and each tool ends through Finish, Exit or Fail instead of
// os.Exit, so profiles are flushed on every exit path.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// stopProfiles writes the profiles startProfiles began; later calls do
// nothing.
var stopProfiles = func() {}

// startProfiles begins CPU profiling into cpuPath, when set, and arms
// stopProfiles to finish it and write the heap profile to memPath.
func startProfiles(cpuPath, memPath string) error {
	var cpuOut *os.File
	if cpuPath != "" {
		var err error
		cpuOut, err = os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
		if memPath != "" {
			out, err := os.Create(memPath)
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
	return nil
}

// Exit flushes any active profiles and exits with the given code. The
// tools use it in place of os.Exit so that -cpuprofile/-memprofile
// output survives error paths.
func Exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// Fail prints err as the tool's "tool: err" diagnostic on stderr and
// exits with code through Exit.
func Fail(tool string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(code)
}
