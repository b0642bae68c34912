//go:build !unix

package fabriccache

// mapPath never succeeds on non-unix hosts; Load falls back to a plain read.
func mapPath(string) ([]byte, bool) { return nil, false }

func unmap([]byte) {}
