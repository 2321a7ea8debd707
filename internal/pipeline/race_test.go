//go:build race

package pipeline

func init() { raceBuild = true }
