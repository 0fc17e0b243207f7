package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// FuzzFrameCodec feeds arbitrary bytes to the frame reader. Whatever the
// stream, the reader must never panic, and every frame it does accept must
// re-encode and re-read to the same compacted JSON (a full round-trip
// through WriteFrame). Oversized, negative and truncated frames must fail
// with errors, which the decode loop below exercises by construction.
func FuzzFrameCodec(f *testing.F) {
	f.Add([]byte("2\n{}\n"))
	f.Add([]byte("13\n{\"id\":3,\"v\":1}\n"))
	f.Add([]byte("0\n\n"))
	f.Add([]byte("-1\n{}\n"))
	f.Add([]byte("99999999999\n{}\n"))
	f.Add([]byte("4\nnull\n2\n{}\n"))
	f.Add([]byte("2\n{}"))                 // missing trailing newline
	f.Add([]byte("67108864\nx"))           // announces MaxFrame, delivers one byte
	f.Add([]byte("banana\n{}\n"))          // non-numeric length
	f.Add([]byte("13\n{\"00&0000\":0}\n")) // json.Marshal re-encodes & as \u0026
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for frames := 0; frames < 64; frames++ {
			var v json.RawMessage
			if err := ReadFrame(br, &v); err != nil {
				return // any error (including io.EOF) ends the stream
			}
			// Round-trip every accepted frame through the writer.
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := WriteFrame(bw, v); err != nil {
				t.Fatalf("re-encoding accepted frame %q: %v", v, err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			var back json.RawMessage
			if err := ReadFrame(bufio.NewReader(&buf), &back); err != nil {
				t.Fatalf("re-reading re-encoded frame %q: %v", v, err)
			}
			want, err1 := compact(v)
			got, err2 := compact(back)
			if err1 != nil || err2 != nil {
				t.Fatalf("compacting round-tripped JSON: %v / %v", err1, err2)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("round trip changed payload: %q -> %q", want, got)
			}
		}
		// Drain a little to make sure long streams of frames also terminate
		// cleanly rather than looping forever.
		io.CopyN(io.Discard, br, 1<<16)
	})
}

// compact normalizes JSON for comparison: compacted, with <, >, & and
// U+2028/U+2029 inside strings escaped the way json.Marshal (and so
// WriteFrame) escapes them — the same value either way.
func compact(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	json.HTMLEscape(&out, buf.Bytes())
	return out.Bytes(), nil
}
