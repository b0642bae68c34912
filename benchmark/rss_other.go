//go:build !unix

package main

import "os"

// peakRSSMB has no portable source off unix: the program still builds and
// runs there, and peak_rss_mb reads 0.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
