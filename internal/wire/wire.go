// Package wire implements the length-delimited JSONL frame codec of the
// internal/fabric TCP daemons (dispatcher, workers, clients). Each frame
// is an ASCII decimal payload length, a newline, the JSON payload, and a
// trailing newline — so a transcript is both unambiguous to parse (no
// scanner line limits, binary-safe) and readable line-by-line by a human:
//
//	42\n{"seq":3,"env":{...},"task":{...}}\n
//
// The codec is deliberately defensive, because fabric peers are arbitrary
// TCP clients: payload lengths are bounded (MaxFrame), the length line
// itself is capped (a peer streaming non-protocol output fails fast instead
// of being buffered without limit), and a truncated, negative-length or
// otherwise hostile stream surfaces an error — never a panic, and never an
// allocation sized by an unread, attacker-chosen length (payload buffers
// grow only as bytes actually arrive).
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxFrame bounds a frame payload (64 MiB, far above any task, outcome or
// job the fabric sends); a length beyond it means a corrupt or hostile
// stream.
const MaxFrame = 64 << 20

// maxLengthLine bounds the frame-length line: MaxFrame has 8 digits, so a
// longer line can only come from a peer that is not speaking the protocol
// (e.g. a misconfigured binary streaming arbitrary output) — fail fast
// instead of buffering its stream without limit.
const maxLengthLine = 16

// allocChunk caps the payload buffer's initial allocation: a frame header
// may lawfully announce up to MaxFrame bytes, but the buffer only grows as
// data actually arrives, so a truncated (or deliberately short) stream
// cannot make the reader allocate the announced size up front.
const allocChunk = 64 << 10

// WriteFrame marshals v and writes one frame. The caller flushes.
func WriteFrame(w *bufio.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrame %d", len(data), MaxFrame)
	}
	if _, err := fmt.Fprintf(w, "%d\n", len(data)); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// ReadFrame reads one frame into v. A clean EOF at a frame boundary returns
// io.EOF; EOF mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, v any) error {
	line, err := readLengthLine(r)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil || n < 0 || n > MaxFrame {
		return fmt.Errorf("wire: bad frame length %q", strings.TrimSpace(line))
	}
	need := n + 1 // payload + trailing newline
	var bb bytes.Buffer
	bb.Grow(min(need, allocChunk))
	if _, err := io.CopyN(&bb, r, int64(need)); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	buf := bb.Bytes()
	if buf[n] != '\n' {
		return fmt.Errorf("wire: frame missing trailing newline")
	}
	if err := json.Unmarshal(buf[:n], v); err != nil {
		return fmt.Errorf("wire: decoding frame: %w", err)
	}
	return nil
}

// readLengthLine reads up to a newline with a hard size cap. A clean EOF
// before any byte returns io.EOF; EOF mid-line returns io.ErrUnexpectedEOF.
func readLengthLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		b, err := r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				if len(line) == 0 {
					return "", io.EOF
				}
				return "", io.ErrUnexpectedEOF
			}
			return "", err
		}
		if b == '\n' {
			return string(line), nil
		}
		line = append(line, b)
		if len(line) > maxLengthLine {
			return "", fmt.Errorf("wire: frame length line exceeds %d bytes; peer is not speaking the protocol", maxLengthLine)
		}
	}
}
