package exec

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/query"
)

// Spilled state lives outside the process, so the engine must never trust it
// blindly: every run frame carries a checksum, and these tests prove that a
// disk that flips a bit or drops a tail turns into a loud spill panic when
// the grace join reads a partition back, never into silently wrong rows, and
// that the abandoned join still returns its grant and spill files on close.

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

// corruptPending applies damage to every non-empty run of the grace join's
// pending partitions (an empty run is a bare header, with no frame to damage)
// and returns how many files it touched.
func corruptPending(t *testing.T, g *graceJoin, damage func(path string, size int64)) int {
	t.Helper()
	n := 0
	for _, p := range g.pending {
		for _, r := range []*mem.Run{p.build, p.probe} {
			if r.Rows() == 0 {
				continue
			}
			info, err := os.Stat(r.Path())
			if err != nil {
				t.Fatal(err)
			}
			damage(r.Path(), info.Size())
			n++
		}
	}
	return n
}

// spillFiles counts the files left in the governor's spill directory.
func spillFiles(t *testing.T, gov *mem.Governor) int {
	t.Helper()
	store, err := gov.Runs()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// drainN pulls up to n batches (n < 0: all of them) and returns the rows
// seen.
func drainN(op BatchOperator, n int) int {
	rows := 0
	for i := 0; n < 0 || i < n; i++ {
		b, ok := op.NextBatch()
		if !ok {
			break
		}
		rows += b.NumRows()
	}
	return rows
}

// newGov returns a governor with the given budget (0 = unlimited) for one
// test. When the test ends, a cleanup fails it if any plan the governor ran
// left a reservation or a spill file behind, and then closes the governor.
// A test that builds plans on it must close them with ClosePlan, as every
// production drain does, so a drain that leaks fails whatever test drives it.
func newGov(t *testing.T, budget int64) *mem.Governor {
	t.Helper()
	gov := mem.NewGovernor(budget)
	t.Cleanup(func() {
		if used := gov.Used(); used != 0 {
			t.Errorf("budget %d: %d bytes still reserved after ClosePlan", budget, used)
		}
		if n := spillFiles(t, gov); n != 0 {
			t.Errorf("budget %d: %d spill files left after ClosePlan", budget, n)
		}
		if err := gov.Close(); err != nil {
			t.Error(err)
		}
	})
	return gov
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

// TestGraceJoinCorruptRunDetected drains one batch of a fully spilled join,
// damages the runs of the partitions still pending, and keeps draining: the
// next partition read must panic with the damage named, and ClosePlan must
// then release the grant and remove every run.
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
			gov := newGov(t, 1)
			j, err := NewVecHashJoinMem(NewBatchScan(l), NewBatchScan(r), 0, gov, cond)
			if err != nil {
				t.Fatal(err)
			}
			if drainN(j, 1) == 0 {
				t.Fatal("join produced no rows; the test data is broken")
			}
			if j.grace == nil {
				t.Fatal("join never spilled; the corruption is not exercised")
			}
			if n := corruptPending(t, j.grace, tc.damage(t)); n == 0 {
				t.Fatal("no pending partition runs; the corruption is not exercised")
			}
			expectSpillPanic(t, tc.want, func() { drainN(j, -1) })
			ClosePlan(j)
		})
	}
}

// TestGraceJoinPartialDrainClose stops a spilling join after one batch and
// after several, at a budget that loads level-0 partitions and at one that
// sub-partitions them; ClosePlan must release the live partition's
// reservation and remove the live and pending partitions' runs.
func TestGraceJoinPartialDrainClose(t *testing.T) {
	l, r := spillJoinTables(t, 3000, 4000)
	cond := JoinCond{LeftCol: "L.k", RightCol: "R.k"}
	for _, budget := range []int64{tableBytes(l) / 4, tableBytes(l) / 40, 1} {
		for _, batches := range []int{1, 7, 40} {
			gov := newGov(t, budget)
			j, err := NewVecHashJoinMem(NewBatchScanSize(l, 256), NewBatchScanSize(r, 256), 256, gov, cond)
			if err != nil {
				t.Fatal(err)
			}
			if drainN(j, batches) == 0 || j.grace == nil {
				t.Fatalf("budget=%d: join produced no rows or never spilled", budget)
			}
			if len(j.grace.pending) == 0 {
				t.Fatalf("budget=%d batches=%d: no partition left pending; the drain is not partial", budget, batches)
			}
			ClosePlan(j)
		}
	}
}

// TestPlanCorruptSegmentColumn damages the one column of a segment table
// that the projected plan does not read: a plan that reads it (every column,
// or the damaged column itself) returns the block's checksum error instead
// of panicking, and the projected plan never decodes it and answers as if
// the table were intact.
func TestPlanCorruptSegmentColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := data.MustNewTable("R", "x", "pad")
	for i := 0; i < 3000; i++ {
		r.AppendRow(int64(i%50), rng.Int63()) // pad is incompressible: most of the file
	}
	s := data.MustNewTable("S", "y", "a")
	for i := 0; i < 400; i++ {
		s.AppendRow(rng.Int63n(60), rng.Int63n(1000))
	}
	e := query.MustNewExpr(query.JoinPred{LeftTable: "R", LeftAttr: "x", RightTable: "S", RightAttr: "y"})
	inMem := data.NewCatalog()
	inMem.MustAdd(r)
	inMem.MustAdd(s)
	want, err := AttrValues(inMem, e, "S", "a")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "R.seg")
	if err := data.WriteSegment(path, r); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t)(path, info.Size()) // mid-file: past the small x block, inside pad's
	seg, err := data.OpenSegmentTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := seg.Close(); err != nil {
			t.Error(err)
		}
	}()
	cat := data.NewCatalog()
	cat.MustAdd(seg)
	cat.MustAdd(s)

	got, err := AttrValues(cat, e, "S", "a")
	if err != nil {
		t.Fatalf("projected plan read the damaged column: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projected plan over the segment: %d values differ from the in-memory table's %d", len(got), len(want))
	}
	if _, err := AttrValues(cat, e, "R", "pad"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("plan reading the damaged column: err = %v, want a checksum error", err)
	}
	if _, err := PlanBatch(cat, e, allColumns(t, cat, e), Options{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unprojected plan: err = %v, want a checksum error", err)
	}
}
