package analysis

// All returns the dimlint analyzer suite in its canonical order. The order
// only affects presentation: diagnostics are sorted by position before
// reporting, so analyzers are listed here by the PR that established each
// invariant.
func All() []*Analyzer {
	return []*Analyzer{
		Refbalance,  // PR 4: encode-once frame ownership
		Lockplane,   // PR 3: two-plane locking discipline
		Hotpathiter, // PR 6: dense-slice hot path, no fmt
	}
}
