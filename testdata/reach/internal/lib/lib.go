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
