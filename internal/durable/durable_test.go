package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteAndAppend pins both entry points: WriteFileAtomic replaces a
// file's content whole and leaves no temp file behind, and OpenAppend
// writes initial only into a file it creates, appending behind an
// existing file's content without truncating it.
func TestWriteAndAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, content := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got := read(); got != content {
			t.Fatalf("after WriteFileAtomic: %q, want %q", got, content)
		}
	}

	appendLine := func(p, initial, line string) {
		t.Helper()
		f, err := OpenAppend(p, []byte(initial))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendLine(path, "ignored\n", "more\n")
	if got := read(); got != "second\nmore\n" {
		t.Errorf("OpenAppend on an existing file: %q", got)
	}
	fresh := filepath.Join(dir, "g")
	appendLine(fresh, "header\n", "line\n")
	if b, err := os.ReadFile(fresh); err != nil || string(b) != "header\nline\n" {
		t.Errorf("OpenAppend on a new file: %q, %v", b, err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		for _, e := range entries {
			t.Logf("entry %s", e.Name())
		}
		t.Errorf("directory holds %d entries, want 2 (no temp files)", len(entries))
	}
}
