package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/mem"
)

// Spilled state lives outside the process, so the engine must never trust it
// blindly: every run frame carries a checksum, and these tests prove that a
// disk that flips a bit or drops a tail turns into a loud spill panic on the
// grace join's re-read path, never into silently wrong rows.

// expectSpillPanic runs fn and asserts it panics with a message mentioning
// substr.
func expectSpillPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic mentioning %q, got none", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

// corruptRuns applies damage to every run file in the governor's spill
// directory and returns how many files it touched.
func corruptRuns(t *testing.T, gov *mem.Governor, damage func(path string, size int64)) int {
	t.Helper()
	store, err := gov.Runs()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		damage(filepath.Join(store.Dir(), e.Name()), info.Size())
		n++
	}
	return n
}

// flipByte flips one bit in the middle of the file, past the 8-byte header so
// the damage lands in a checksummed frame rather than the magic.
func flipByte(t *testing.T) func(path string, size int64) {
	return func(path string, size int64) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		off := size / 2
		if off < 8 {
			off = 8
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
}

// chopTail truncates the file mid-frame, dropping the last few bytes.
func chopTail(t *testing.T) func(path string, size int64) {
	return func(path string, size int64) {
		t.Helper()
		if err := os.Truncate(path, size-5); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraceJoinCorruptRunDetected(t *testing.T) {
	l, r := spillJoinTables(t, 3000, 4000)
	cond := JoinCond{LeftCol: "L.k", RightCol: "R.k"}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T) func(string, int64)
		want   string
	}{
		{"bitflip", flipByte, "checksum"},
		{"truncated", chopTail, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gov := mem.NewGovernor(1)
			j, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(r), 0, gov, cond)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainBatches(t, j); len(got) == 0 {
				t.Fatal("join produced no rows; the test data is broken")
			}
			if j.grace == nil {
				t.Fatal("join never spilled; the corruption is not exercised")
			}
			// After completion only the retained output runs remain on disk —
			// exactly what Reset re-merges.
			if n := corruptRuns(t, gov, tc.damage(t)); n == 0 {
				t.Fatal("no spilled runs on disk; the corruption is not exercised")
			}
			expectSpillPanic(t, tc.want, func() {
				j.Reset()
				for {
					if _, ok := j.NextBatch(); !ok {
						break
					}
				}
			})
			if err := gov.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
