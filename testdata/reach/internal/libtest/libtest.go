// Package libtest is a test-helper package: its exports are exempt.
package libtest

// Helper serves lib's tests only: not flagged.
func Helper() int { return 5 }
