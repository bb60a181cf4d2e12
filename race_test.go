//go:build race

package perm_test

// Under the race detector sync.Pool drops a quarter of what is returned
// to it, so the batch buffers a plan recycles are partly allocated anew.
func init() { raceEnabled = true }
