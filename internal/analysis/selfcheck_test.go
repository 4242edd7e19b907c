package analysis

import "testing"

// TestSelfCheckModuleClean runs the full analyzer suite over the whole
// repository with stale-directive pruning on, pinning the tree to zero
// findings: every intentional exception must carry a reasoned
// //dnalint:allow directive, and every directive must still be earning its
// keep. This is the same check `make lint` / cmd/dnalint run in CI.
func TestSelfCheckModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; covered by make lint and full test runs")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunModule(root, All(), Options{PruneDirectives: true})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
