package applog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// rec is the test record shape.
type rec struct {
	Seq int    `json:"seq"`
	Pad string `json:"pad,omitempty"`
}

// collect returns a decoder that keeps every line that decodes as a rec.
func collect(into *[]rec) func([]byte) error {
	return func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		*into = append(*into, r)
		return nil
	}
}

// load opens path and returns the log with the records it kept.
func load(t *testing.T, path string) (*Log, []rec) {
	t.Helper()
	var recs []rec
	l, err := Open(path, collect(&recs))
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func sampleRecs() []rec {
	return []rec{{Seq: 1}, {Seq: 2, Pad: "two"}, {Seq: 3, Pad: strings.Repeat("x", 40)}, {Seq: 4}, {Seq: 5, Pad: "five"}}
}

// TestAppendCrashPoints tears an append at every byte offset of a full
// history. Whatever the offset, the file must be the exact prefix of the
// uninterrupted file, a reload must keep exactly the records whose JSON
// survived whole (and count a cut one as corrupt), and the next append
// after the reload must come back as the last record.
func TestAppendCrashPoints(t *testing.T) {
	recs := sampleRecs()
	full := filepath.Join(t.TempDir(), "full.jsonl")
	l, _ := load(t, full)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Record i's JSON spans data[starts[i]:ends[i]]; its newline follows.
	starts, ends := []int{0}, []int{}
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i)
			starts = append(starts, i+1)
		}
	}
	if len(ends) != len(recs) {
		t.Fatalf("reference file has %d lines for %d records", len(ends), len(recs))
	}

	dir := t.TempDir()
	after := rec{Seq: 99, Pad: "after the crash"}
	for offset := 0; offset <= len(data); offset++ {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.jsonl", offset))
		cl, _ := load(t, path)
		cl.failAfter = int64(offset)
		crashed := false
		for _, r := range recs {
			if err := cl.Append(r); err != nil {
				if !errors.Is(err, errCrash) {
					t.Fatalf("offset %d: append: %v", offset, err)
				}
				crashed = true
				break
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if !crashed && offset < len(data) {
			t.Fatalf("offset %d: no crash fired before the full history", offset)
		}
		got, err := os.ReadFile(path)
		if err != nil && !(offset == 0 && os.IsNotExist(err)) {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:offset]) {
			t.Fatalf("offset %d: file is not the exact prefix of the reference", offset)
		}

		// A record is whole when its JSON survived (its newline may not
		// have); the next one, if begun, is the cut one.
		whole, cut := 0, 0
		for whole < len(recs) && ends[whole] <= offset {
			whole++
		}
		if whole < len(recs) && offset > starts[whole] {
			cut = 1
		}
		re, kept := load(t, path)
		if len(kept) != whole || re.Corrupt() != cut {
			t.Fatalf("offset %d: reload kept %d records / %d corrupt, want %d / %d", offset, len(kept), re.Corrupt(), whole, cut)
		}
		for i := range kept {
			if kept[i] != recs[i] {
				t.Fatalf("offset %d: kept record %d is %+v, want %+v", offset, i, kept[i], recs[i])
			}
		}
		if err := re.Append(after); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		_, kept = load(t, path)
		if len(kept) != whole+1 || kept[len(kept)-1] != after {
			t.Fatalf("offset %d: the append after the crash was not the last record on reload: %+v", offset, kept)
		}
	}
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestFailedAppendKeepsNextRecord: callers only log a failed append and
// carry on, so a failure must not cost the next record. Two crash points:
// on a torn file, a failure that writes nothing must keep the stump marked
// torn; on a clean file, a failure that leaves a 5-byte stump must mark it
// torn. Either way the next append lands on its own line.
func TestFailedAppendKeepsNextRecord(t *testing.T) {
	intact := `{"seq":1}` + "\n"
	for _, tc := range []struct {
		name    string
		initial string
		keep    int64 // bytes the failing append writes
	}{
		{"torn-file-0-byte-failure", intact + `{"seq":2,"pad":"cut`, 0},
		{"clean-file-5-byte-write", intact, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.initial), 0o644); err != nil {
				t.Fatal(err)
			}
			l, _ := load(t, path)
			l.failAfter = tc.keep
			if err := l.Append(rec{Seq: 3}); !errors.Is(err, errCrash) {
				t.Fatalf("crash point did not fire: %v", err)
			}
			l.failAfter = -1
			if err := l.Append(rec{Seq: 4}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re, kept := load(t, path)
			if want := []rec{{Seq: 1}, {Seq: 4}}; !reflect.DeepEqual(kept, want) || re.Corrupt() != 1 {
				t.Fatalf("append after a failed one was lost: kept %+v / %d corrupt, want %+v / 1", kept, re.Corrupt(), want)
			}
		})
	}
}

// TestOpenMissingFileCreatesOnAppend: a missing file is an empty log, Close
// without an append creates nothing, and a Close between appends only
// releases the handle.
func TestOpenMissingFileCreatesOnAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, kept := load(t, path)
	if len(kept) != 0 || l.Corrupt() != 0 {
		t.Fatalf("missing file loaded %d records / %d corrupt", len(kept), l.Corrupt())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a log never appended to created its file: %v", err)
	}
	for _, r := range sampleRecs()[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, kept := load(t, path); !reflect.DeepEqual(kept, sampleRecs()[:2]) {
		t.Fatalf("appends across Close reloaded as %+v", kept)
	}
}

// TestConcurrentAppend: appends and syncs from several goroutines at once
// never interleave records — every one reloads intact.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := load(t, path)
	const goroutines, each = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(rec{Seq: g*each + i, Pad: strings.Repeat("p", i)}); err != nil {
					t.Error(err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, kept := load(t, path)
	seen := make(map[int]bool)
	for _, r := range kept {
		seen[r.Seq] = true
	}
	if len(kept) != goroutines*each || len(seen) != goroutines*each || re.Corrupt() != 0 {
		t.Fatalf("reloaded %d records (%d distinct) / %d corrupt, want %d / 0", len(kept), len(seen), re.Corrupt(), goroutines*each)
	}
}

// nonBlankLines splits data the way Scan promises to: at newlines, with
// surrounding whitespace trimmed and blank lines dropped.
func nonBlankLines(data []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}

// FuzzScan feeds arbitrary bytes through Scan and Open. Whatever the
// content: no panic; decode sees exactly the non-blank lines, and the kept
// plus corrupt lines account for all of them; and a record appended after
// the bytes is the last record on reload, with every earlier line kept or
// counted as before.
func FuzzScan(f *testing.F) {
	var hist []byte
	for _, r := range sampleRecs() {
		hist = append(hist, append(mustJSON(f, r), '\n')...)
	}
	f.Add(hist)
	f.Add(hist[:len(hist)-7]) // torn tail
	f.Add(hist[:len(hist)-1]) // only the last newline cut
	f.Add(append([]byte("garbage\n"), hist...))
	f.Add([]byte("\n\n  \r\n\t\n")) // blank lines only
	f.Add([]byte(`{"seq":1}` + "\r\n" + `  {"seq":2}  ` + "\n"))
	f.Add([]byte(`{"seq":"not a number"}` + "\n" + `null` + "\n" + `[1,2]`))
	f.Add([]byte{})
	f.Add([]byte(`{"seq":7,"pad":"` + strings.Repeat("p", 100<<10) + `"}` + "\n")) // longer than any read buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		want := nonBlankLines(data)
		var seen [][]byte
		kept := 0
		corrupt, torn, err := Scan(bytes.NewReader(data), func(line []byte) error {
			seen = append(seen, bytes.Clone(line))
			var r rec
			if err := json.Unmarshal(line, &r); err != nil {
				return err
			}
			kept++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(want) {
			t.Fatalf("decode saw %d lines, want the %d non-blank lines", len(seen), len(want))
		}
		for i := range want {
			if !bytes.Equal(seen[i], want[i]) {
				t.Fatalf("line %d handed to decode as %q, want %q", i, seen[i], want[i])
			}
		}
		if kept+corrupt != len(want) {
			t.Fatalf("kept %d + corrupt %d != %d non-blank lines", kept, corrupt, len(want))
		}
		if wantTorn := len(data) > 0 && data[len(data)-1] != '\n'; torn != wantTorn {
			t.Fatalf("torn = %t, want %t", torn, wantTorn)
		}

		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, _ := load(t, path)
		marker := rec{Seq: -1, Pad: "appended after arbitrary bytes"}
		if err := l.Append(marker); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re, recs := load(t, path)
		if len(recs) != kept+1 || re.Corrupt() != corrupt {
			t.Fatalf("reload kept %d / %d corrupt, want %d / %d", len(recs), re.Corrupt(), kept+1, corrupt)
		}
		if recs[len(recs)-1] != marker {
			t.Fatalf("appended record is not the last on reload: %+v", recs[len(recs)-1])
		}
	})
}
