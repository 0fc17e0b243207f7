// Package applog is the append-only JSON-lines file under every result the
// repository keeps on disk: the experiment layer's cell and outcome cache
// (exp.FileCache) and the fabric dispatcher's write-ahead job journal
// (fabric.Journal). One record is one line, appended with one write(2), so
// a hard kill costs at most the record being written.
//
// Loading streams the file and never fails on its content: a line the
// caller's decoder rejects (for instance one cut short by a hard kill) is
// skipped and counted, because these files are an optimization to replay,
// not a source of truth to refuse. A file whose last byte is not a newline
// has a torn tail — a record cut mid-write — and the next append starts on
// a fresh line so the new record is not glued onto the stump. The mark is
// cleared only by a successful write: a failed append may leave a stump of
// its own, and the caller's next record must still land intact.
//
// One process owns a log. Within it a Log is safe for concurrent use; the
// file is opened O_APPEND, so even a second appender on a local (POSIX)
// filesystem never interleaves records, but each process sees only the
// records that existed when it opened the log.
package applog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// errCrash is returned by the test-only crash point when an append was
// deliberately torn mid-write — the in-process stand-in for a SIGKILL
// landing between the first and last byte of a write(2).
var errCrash = errors.New("applog: crash point: append torn mid-write")

// Log is an append-only JSON-lines file. Open it with Open, add records
// with Append, make them durable with Sync, and Close it when done.
type Log struct {
	path    string
	corrupt int

	mu sync.Mutex
	f  *os.File // opened by the first Append, held until Close
	// torn is set while the file may not end in a newline: it was loaded
	// with a torn tail, or the last append failed.
	torn bool

	// failAfter, when >= 0, is a test-only crash point: it bounds the bytes
	// this Log may append, and the write that would cross the bound is cut
	// exactly at it and answered with errCrash. < 0 disables it.
	failAfter int64
	written   int64
}

// Scan streams JSON lines from r, handing each non-blank line, with
// surrounding whitespace trimmed, to decode; the slice is valid only during
// the call. Lines may be of any length. A line decode rejects is counted in
// corrupt; torn reports whether r's last byte is not a newline. err is set
// only when reading r fails.
func Scan(r io.Reader, decode func(line []byte) error) (corrupt int, torn bool, err error) {
	br := bufio.NewReader(r)
	last := byte('\n')
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			last = line[len(line)-1]
		}
		if line = bytes.TrimSpace(line); len(line) > 0 && decode(line) != nil {
			corrupt++
		}
		if rerr == io.EOF {
			return corrupt, last != '\n', nil
		}
		if rerr != nil {
			return corrupt, last != '\n', rerr
		}
	}
}

// Open loads the log at path through Scan with decode and returns it ready
// for appends. A missing file is an empty log; the first Append creates it.
func Open(path string, decode func(line []byte) error) (*Log, error) {
	l := &Log{path: path, failAfter: -1}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return l, nil
		}
		return nil, fmt.Errorf("applog: opening %s: %w", path, err)
	}
	defer f.Close()
	if l.corrupt, l.torn, err = Scan(f, decode); err != nil {
		return nil, fmt.Errorf("applog: reading %s: %w", path, err)
	}
	return l, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Corrupt reports how many lines the load skipped because decode rejected
// them.
func (l *Log) Corrupt() int { return l.corrupt }

// Append writes v as one JSON line with a single write(2) through a
// persistent O_APPEND handle, opening (and if need be creating) the file
// first. While the tail is torn the line is prefixed with a newline. The
// record is in the kernel when Append returns; Sync makes it durable.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("applog: encoding record for %s: %w", l.path, err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.torn {
		line = append([]byte{'\n'}, line...)
	}
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("applog: opening %s for append: %w", l.path, err)
		}
		l.f = f
	}
	if err := l.write(line); err != nil {
		l.torn = true // a failed write may leave a stump
		return fmt.Errorf("applog: appending to %s: %w", l.path, err)
	}
	l.torn = false
	return nil
}

// write issues the record's write(2), or tears it at the crash point.
func (l *Log) write(line []byte) error {
	if l.failAfter >= 0 && l.written+int64(len(line)) > l.failAfter {
		keep := max(l.failAfter-l.written, 0)
		n, _ := l.f.Write(line[:keep])
		l.written += int64(n)
		return errCrash
	}
	n, err := l.f.Write(line)
	l.written += int64(n)
	return err
}

// Sync flushes the appended records to stable storage. It is a no-op when
// the log holds no open handle.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("applog: syncing %s: %w", l.path, err)
	}
	return nil
}

// Close releases the append handle; the next Append reopens the file. A log
// that was never appended to has no handle, and Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("applog: closing %s: %w", l.path, err)
	}
	return nil
}
