package checkpoint

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. Snapshot encoders must
// iterate maps through it: Go randomizes map iteration order, and the
// snapshot format guarantees that identical state serializes to identical
// bytes (recovery tests compare snapshots directly, and checkpoint files
// deduplicate by content). Core's snapshot round-trip tests re-serialize
// every restored operator and require the identical bytes, so a direct map
// range in an encoder shows up there.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
