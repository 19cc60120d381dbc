// Package lib holds one export of each kind the reachability check
// must tell apart.
package lib

// Used is called by the main: not flagged.
func Used() int { return 1 }

// OnlyTested is called only by lib_test.go: flagged.
func OnlyTested() int { return 2 }

// Shape is what the main calls Area through.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape: not flagged.
type Square struct{ Side int }

// Area implements Shape.
func (s Square) Area() int { return s.Side * s.Side }

// NewSquare returns a square as a Shape.
func NewSquare(side int) Shape { return Square{Side: side} }

func hook() int { return 3 }

// Syscall numbers need an issuer outside their own package.
const (
	// SysIssued is issued by the main: not flagged.
	SysIssued = iota
	// SysX is named only by dispatch, in its own package: flagged.
	SysX
)

func dispatch(num int) int {
	switch num {
	case SysIssued, SysX:
		return num
	}
	return -1
}

// Color is a named constant type: a member no non-test file uses is
// flagged, except the zero member every zero value holds.
type Color uint8

// Colors.
const (
	Red   Color = iota // zero: not flagged
	Green              // used by the main: not flagged
	Blue               // unused: flagged
)

// Width is an untyped constant only lib_test.go uses: flagged.
const Width = 4
