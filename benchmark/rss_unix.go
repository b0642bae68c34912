//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

// peakRSSMB is an exited child's ru_maxrss in megabytes. Linux and the BSDs
// count it in kilobytes, Darwin in bytes.
func peakRSSMB(st *os.ProcessState) float64 {
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return float64(ru.Maxrss) / 1e6
	}
	return float64(ru.Maxrss) / 1e3
}
