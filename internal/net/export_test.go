package net

import "uldma/internal/machine"

// MustNewCluster is NewCluster that panics on error, for the tests'
// fixed, valid configurations.
func MustNewCluster(n int, cfg machine.Config, link LinkConfig) *Cluster {
	c, err := NewCluster(n, cfg, link)
	if err != nil {
		panic(err)
	}
	return c
}
