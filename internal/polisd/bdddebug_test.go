//go:build bdddebug

package polisd

func init() { bddDebugBuild = true }
