package lint

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestRepositoryIsLintClean runs the full analyzer suite over the real
// module, the same check `slicelint ./...` makes: a contract violation, a
// malformed directive or a suppression that suppresses nothing anywhere in
// the tree fails it. It is the repository's lint gate — scripts/check.sh and
// CI reach it through `go test ./...` and do not run the binary again.
func TestRepositoryIsLintClean(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file))) // internal/lint -> repo root
	mod, err := ModulePathFromGoMod(root)
	if err != nil {
		t.Fatalf("read module path: %v", err)
	}
	pkgs, err := (&Loader{ModulePath: mod, Dir: root}).Load("./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, f := range Run(All(), pkgs) {
		t.Errorf("%s", f)
	}
}
