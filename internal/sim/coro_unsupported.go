//go:build !go1.23

package sim

// Process handoff is built on iter.Pull coroutines, which need a Go 1.23
// or newer toolchain. This undefined name turns an older toolchain's
// build into an error that says so.
var _ = sim_requires_go1_23_or_newer_toolchain
