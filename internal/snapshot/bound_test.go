package snapshot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFileSizeBound pins the one whole-file bound Write, Read and Load
// share: a file of exactly maxFileBytes is allowed, one byte more is an
// explicit "exceeds" error rather than a later checksum mismatch.
func TestFileSizeBound(t *testing.T) {
	for _, c := range []struct {
		n  int64
		ok bool
	}{{maxFileBytes - 1, true}, {maxFileBytes, true}, {maxFileBytes + 1, false}} {
		err := checkFileSize(c.n)
		if (err == nil) != c.ok {
			t.Fatalf("checkFileSize(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("checkFileSize(%d) error %q does not say it exceeds the bound", c.n, err)
		}
	}
}

// TestLoadRejectsOversizedFileBeforeReading gives Load a sparse file one
// byte over the bound: it must refuse on the file's length alone, without
// allocating for or reading the content.
func TestLoadRejectsOversizedFileBeforeReading(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxFileBytes + 1); err != nil {
		f.Close()
		t.Skipf("cannot create a sparse file here: %v", err)
	}
	f.Close()
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Load of an oversized file: %v, want an exceeds error", err)
	}
}
