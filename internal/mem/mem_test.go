package mem

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"123":    123,
		"1K":     1024,
		"512M":   512 << 20,
		"2G":     2 << 30,
		"1T":     1 << 40,
		"64kb":   64 << 10,
		"2GiB":   2 << 30,
		"10B":    10,
		" 7 M ":  7 << 20,
		"128MiB": 128 << 20,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "12Q", "9999999999999G"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestGovernorAccounting(t *testing.T) {
	g := NewGovernor(1000)
	gr := g.Grant("op")
	if !gr.TryReserve(600) {
		t.Fatal("first reservation denied")
	}
	if gr.TryReserve(600) {
		t.Fatal("over-budget reservation admitted")
	}
	if got := g.Used(); got != 600 {
		t.Fatalf("Used = %d, want 600", got)
	}
	gr.Release(200)
	if !gr.TryReserve(500) {
		t.Fatal("reservation denied after release")
	}
	if got, want := g.Used(), int64(900); got != want {
		t.Fatalf("Used = %d, want %d", got, want)
	}
	gr.Force(500) // scratch overcommit is admitted and accounted
	if got, want := g.Used(), int64(1400); got != want {
		t.Fatalf("Used after Force = %d, want %d", got, want)
	}
	gr.Close()
	if got := g.Used(); got != 0 {
		t.Fatalf("Used after grant close = %d, want 0", got)
	}
	if got, want := g.Peak(), int64(1400); got != want {
		t.Fatalf("Peak = %d, want %d", got, want)
	}
}

func TestNilGovernorIsUnlimited(t *testing.T) {
	var g *Governor
	if !g.Unlimited() {
		t.Fatal("nil governor not unlimited")
	}
	gr := g.Grant("op")
	if !gr.TryReserve(1 << 40) {
		t.Fatal("nil-governor reservation denied")
	}
	gr.Release(1)
	gr.Close()
	if err := g.Close(); err != nil {
		t.Fatalf("nil governor Close: %v", err)
	}
	var ngr *Grant
	if !ngr.TryReserve(5) {
		t.Fatal("nil grant denied")
	}
	ngr.Close()
}

func TestRunRoundTrip(t *testing.T) {
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Create("trip", 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][][]int64{
		{{1, 2, 3}, {-4, -5, -6}},
		{{7}, {8}},
		{{}, {}}, // empty batches are dropped, not written
		{{9, 10}, {11, 12}},
	}
	for _, b := range batches {
		if err := w.WriteColumns(b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Rows() != 6 {
		t.Fatalf("run rows = %d, want 6", run.Rows())
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int64 = [][]int64{nil, nil}
	for {
		cols, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for c := range cols {
			got[c] = append(got[c], cols[c]...)
		}
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2, 3, 7, 9, 10}, {-4, -5, -6, 8, 11, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
	if err := run.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Open(); err == nil {
		t.Fatal("open after Remove unexpectedly succeeded")
	}
}

// TestRunCorruptionDetected flips one payload byte and expects the CRC to
// catch it.
func TestRunCorruptionDetected(t *testing.T) {
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Create("crc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteColumns([][]int64{{100, 200, 300}}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(run.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-7] ^= 0x40 // inside the last value's bytes
	if err := os.WriteFile(run.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rd.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted batch read error = %v, want checksum mismatch", err)
	}
}

func TestRunStoreDeterministicNamesAndClose(t *testing.T) {
	g := NewGovernor(1)
	store, err := g.Runs()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := store.Create("build-p0", 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := store.Create("build-p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(w1.run.path); base != "000000-build-p0.run" {
		t.Fatalf("first run name = %q", base)
	}
	if base := filepath.Base(w2.run.path); base != "000001-build-p1.run" {
		t.Fatalf("second run name = %q", base)
	}
	if err := w1.WriteColumns([][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := store.Dir()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still exists after Close (stat err = %v)", err)
	}
	// Close is idempotent.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunFormatsAndStats writes sorted and constant columns, checks they read
// back identically, that the run on disk is far smaller than the raw
// 8-bytes-per-value size the store accounts for it, and that the store's
// stats reflect the encoded sizes.
func TestRunFormatsAndStats(t *testing.T) {
	cols := [][]int64{make([]int64, 2048), make([]int64, 2048)}
	for i := range cols[0] {
		cols[0][i] = int64(i) * 3 // sorted: delta-friendly
		cols[1][i] = 42           // constant
	}
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Create("srn2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteColumns(cols); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rd.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got := [][]int64{nil, nil}
	for {
		batch, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for c := range batch {
			got[c] = append(got[c], batch[c]...)
		}
	}
	if !reflect.DeepEqual(got, cols) {
		t.Fatal("run decodes differently from what was written")
	}
	fi, err := os.Stat(run.Path())
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.RawBytes != 2*2048*8 {
		t.Fatalf("RawBytes = %d, want %d", st.RawBytes, 2*2048*8)
	}
	if fi.Size() >= st.RawBytes/4 {
		t.Fatalf("SRN2 run %d bytes vs %d raw: expected >4x shrink on sorted+const data", fi.Size(), st.RawBytes)
	}
	if want := fi.Size() - 8; st.SpilledBytes != want { // batch frames, minus the file header
		t.Fatalf("SpilledBytes = %d, want %d", st.SpilledBytes, want)
	}
	if st.Ratio() >= 0.25 {
		t.Fatalf("stats ratio = %v, want < 0.25", st.Ratio())
	}
}

// TestRunSRN2Corruption bit-flips and truncates an SRN2 run and expects
// checksum / truncation errors, never silent wrong values; a file in the
// retired raw format is refused at Open by its magic.
func TestRunSRN2Corruption(t *testing.T) {
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	write := func(tag string) *Run {
		t.Helper()
		w, err := store.Create(tag, 2)
		if err != nil {
			t.Fatal(err)
		}
		cols := [][]int64{make([]int64, 512), make([]int64, 512)}
		for i := range cols[0] {
			cols[0][i] = int64(i)
			cols[1][i] = int64(i * i)
		}
		if err := w.WriteColumns(cols); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	t.Run("bitflip", func(t *testing.T) {
		run := write("flip")
		raw, err := os.ReadFile(run.Path())
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x08 // mid-frame payload byte
		if err := os.WriteFile(run.Path(), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rd, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := rd.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("bit-flipped SRN2 read = %v, want checksum mismatch", err)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		run := write("trunc")
		raw, err := os.ReadFile(run.Path())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(run.Path(), raw[:len(raw)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		rd, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := rd.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated SRN2 read = %v, want truncation error", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		// The retired raw format's header: magic "SRN1" + column count.
		path := filepath.Join(t.TempDir(), "000000-legacy.run")
		hdr := binary.LittleEndian.AppendUint32([]byte("SRN1"), 1)
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		run := &Run{path: path, ncols: 1}
		rd, err := run.Open()
		if err == nil {
			_ = rd.Close()
			t.Fatal("SRN1 run opened; want bad magic error")
		}
		if !strings.Contains(err.Error(), `bad magic "SRN1"`) {
			t.Fatalf("SRN1 open = %v, want an error naming the magic", err)
		}
	})
}

// TestGovernorConcurrentGrants hammers one shared Governor from many
// goroutines — the ledger workload N concurrent Builders produce — and
// asserts the lock-free accounting stays exact: no reservation is admitted
// past the budget, Peak never exceeds it, and once every grant closes the
// ledger reads zero. Run under -race this is the shared-governor safety test.
func TestGovernorConcurrentGrants(t *testing.T) {
	const (
		budget  = 1 << 20
		workers = 16
		iters   = 500
		chunk   = budget / workers / 4 // every worker's reservation always fits
	)
	g := NewGovernor(budget)
	defer func() {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gr := g.Grant("worker")
			defer gr.Close()
			held := int64(0)
			for i := 0; i < iters; i++ {
				switch {
				case i%7 == 3 && held > 0:
					gr.Release(held)
					held = 0
				case gr.TryReserve(chunk):
					held += chunk
				}
				if u := g.Used(); u > budget {
					t.Errorf("worker %d: used %d exceeds budget %d", w, u, budget)
					return
				}
			}
			// Half the workers leave bytes for Grant.Close to reclaim.
			if w%2 == 0 && held > 0 {
				gr.Release(held)
			}
		}(w)
	}
	wg.Wait()

	if p := g.Peak(); p <= 0 || p > budget {
		t.Fatalf("peak %d outside (0, %d]", p, budget)
	}
	if u := g.Used(); u != 0 {
		t.Fatalf("ledger holds %d bytes after every grant closed", u)
	}
	// Over-release must clamp, not underflow.
	gr := g.Grant("clamp")
	gr.Force(64)
	gr.Release(1 << 30)
	if u := g.Used(); u != 0 {
		t.Fatalf("over-release left %d bytes", u)
	}
	gr.Close()
}
