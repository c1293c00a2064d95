package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunDirLeavesParentAlone checks that removing a run's directory keeps
// what the --work directory already held.
func TestRunDirLeavesParentAlone(t *testing.T) {
	parent := t.TempDir()
	keep := filepath.Join(parent, "keep")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir, err := runDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(dir) != parent {
		t.Fatalf("run directory %s is not directly under %s", dir, parent)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("a file already in the work directory was removed: %v", err)
	}
	nested, err := runDir(filepath.Join(parent, "new", "work"))
	if err != nil {
		t.Fatalf("a missing work directory was not created: %v", err)
	}
	if _, err := os.Stat(nested); err != nil {
		t.Error(err)
	}
}
