//go:build race

package polisd

func init() { raceBuild = true }
