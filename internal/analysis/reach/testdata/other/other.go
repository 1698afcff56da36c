// Package other declares a live function whose name lib.Helper shares.
package other

// Helper is called by cmd/app: live.
func Helper() int { return 1 }
