// Package names resolves a named configuration choice (an ordering, a
// policy, a timing mode...) in both directions through the one table
// of names that the choice's package keeps, indexed by value.
package names

import (
	"fmt"
	"strings"
)

// Parse returns the value whose name in table is name. An unknown name
// is an error that names the kind of choice and lists the table.
func Parse[T ~int](kind string, table []string, name string) (T, error) {
	for i, n := range table {
		if n == name {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (accepted: %s)", kind, name, strings.Join(table, ", "))
}

// Name returns v's name in table, or "" for a value outside it.
func Name[T ~int](table []string, v T) string {
	if v < 0 || int(v) >= len(table) {
		return ""
	}
	return table[v]
}
