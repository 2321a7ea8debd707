//go:build bdddebug

package pipeline

func init() { bddDebugBuild = true }
