// Package snapshot implements versioned, CRC-guarded checkpointing of
// predictor state. A snapshot is a cache of learned state, never an
// authoritative store: every consumer treats any decode failure — bad
// magic, unknown version, framing mismatch, checksum error — as "no
// snapshot" and falls back to a cold predictor.
//
// Layout of a snapshot stream:
//
//	magic    8 raw bytes "LLBPSNAP"
//	version  uvarint (CRC-covered from here on)
//	name     length-prefixed predictor registry name
//	payload  per-component frames written by the predictor's SaveState
//	crc      4-byte little-endian CRC-32C of everything after the magic
//
// Within the payload each component opens with a Marker (a 32-bit hash of
// its name) so a desynchronized decode fails at a labelled boundary
// instead of misreading later fields.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrCorrupt is wrapped by every decode failure, letting callers
// distinguish "unusable snapshot, start cold" from I/O errors such as a
// missing file.
var ErrCorrupt = errors.New("snapshot: corrupt or incompatible")

const (
	magic = "LLBPSNAP"
	// Version is the current format version. The loader accepts only this
	// version: snapshots are a warm-start cache, so the forward-compat
	// policy is simply "mismatch means cold start", never migration.
	Version = 1
	// maxNameLen bounds the predictor-name field during decode.
	maxNameLen = 256
)

// State is implemented by everything that can round-trip through a
// snapshot. SaveState writes the complete learned state; LoadState reads
// it back into a freshly constructed instance of the same configuration.
// Both use the codec's sticky-error discipline: implementations encode or
// decode straight through and the caller checks Err once at the end.
// LoadState must validate every invariant it relies on (via Reader.Fail)
// because the CRC is only verified after the payload is consumed.
type State interface {
	SaveState(w *Writer)
	LoadState(r *Reader)
}

// writerPool recycles the scratch Writers that Save encodes into and
// whose buffers Load and ReadFile read a blob into. A blob handed to a
// caller (Encode) is always a fresh copy, and Decode copies everything it
// keeps, so no pooled buffer outlives the call that borrowed it. Sharing
// one pool between both directions keeps restores from pinning buffers
// of their own.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledBuf caps the buffer a pooled Writer keeps, so one outsized
// snapshot does not pin its buffer for the life of the process.
const maxPooledBuf = 4 << 20

// encoded borrows a pooled Writer holding a complete snapshot of s:
// magic, the CRC-covered body, and the CRC-32C trailer computed in one
// pass. The caller must hand the Writer back with release.
func encoded(name string, s State) *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = append(w.buf[:0], magic...)
	w.U64(Version)
	w.String(name)
	s.SaveState(w)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf[len(magic):], castagnoli))
	return w
}

func (w *Writer) release() {
	if cap(w.buf) > maxPooledBuf {
		w.buf = nil
	}
	writerPool.Put(w)
}

// Save writes a complete snapshot of s, identified by the registry name,
// to w in a single Write call.
func Save(w io.Writer, name string, s State) error {
	sw := encoded(name, s)
	defer sw.release()
	_, err := w.Write(sw.buf)
	return err
}

// Encode returns a complete snapshot of s, identified by the registry
// name, as a fresh slice owned by the caller.
func Encode(name string, s State) []byte {
	sw := encoded(name, s)
	defer sw.release()
	return bytes.Clone(sw.buf)
}

// Decode decodes one snapshot held in data. construct receives the
// predictor name stored in the header and must return a cold State of
// that configuration (or an error, e.g. for an unknown name); the payload
// is then decoded into it. The State is returned only if the full payload
// decoded and the trailing CRC matched — on any failure the partially
// loaded instance is discarded, so a corrupt snapshot can never yield a
// silently-wrong predictor. Bytes after the trailer are ignored. Decode
// copies what it keeps, so data may be reused once it returns.
func Decode(data []byte, construct func(name string) (State, error)) (State, string, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, "", fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	sr := NewReader(data[len(magic):])
	if v := sr.U64(); sr.Err() == nil && v != Version {
		return nil, "", fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	name := sr.String(maxNameLen)
	if err := sr.Err(); err != nil {
		return nil, "", err
	}
	s, err := construct(name)
	if err != nil {
		return nil, name, err
	}
	s.LoadState(sr)
	if err := sr.Err(); err != nil {
		return nil, name, err
	}
	body, rest := sr.in[:sr.offset()], sr.in[sr.offset():]
	if len(rest) < 4 {
		return nil, name, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(rest) != crc32.Checksum(body, castagnoli) {
		return nil, name, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return s, name, nil
}

// Load reads r to EOF and decodes the snapshot it holds (see Decode).
// Everything after the trailer is read and ignored, so one stream cannot
// carry consecutive snapshots — nor could it when Load read through a
// buffer that consumed up to 4 KB past the trailer. A read error ends the
// data where it occurred, exactly like truncation: the verdict is
// ErrCorrupt unless a complete snapshot arrived before it.
func Load(r io.Reader, construct func(name string) (State, error)) (State, string, error) {
	size := 0
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	w, _ := readBlob(r, size) // a read error ends the data, as documented above
	defer w.release()
	return Decode(w.buf, construct)
}

// readBlob reads r to EOF into a pooled Writer's buffer, sized for a blob
// of size bytes when size is known. The caller decodes w.buf and hands the
// Writer back with release. A buffer too small for the blob is replaced by
// one of exactly the blob's size plus one byte (so the read that sees EOF
// needs no room), not doubled, so the pool keeps no more than the largest
// blob it served.
func readBlob(r io.Reader, size int) (*Writer, error) {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) <= size {
		w.buf = make([]byte, 0, size+1)
	}
	buf := w.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			w.buf = buf
			if err == io.EOF {
				err = nil
			}
			return w, err
		}
	}
}

// WriteFile saves a snapshot crash-consistently: the bytes land in a temp
// file in the destination directory, are fsynced, and are renamed over
// path, so a crash at any point leaves either the old snapshot or the new
// one — never a torn file.
func WriteFile(path, name string, s State) error {
	return WriteFileWrapped(path, name, s, nil)
}

// WriteFileWrapped is WriteFile with an interception point for fault
// injection: when wrap is non-nil, the encoded snapshot passes through
// wrap(tempFile) in one Write on its way to disk, letting a test inject torn or
// partial writes underneath the crash-consistency machinery (the CRC and
// the loader's quarantine handling are what must catch the damage). A nil
// wrap is exactly WriteFile.
func WriteFileWrapped(path, name string, s State, wrap func(io.Writer) io.Writer) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	var dst io.Writer = tmp
	if wrap != nil {
		dst = wrap(tmp)
	}
	if err = Save(dst, name, s); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmpName, path); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile loads a snapshot from path, reading the file into a recycled
// buffer and decoding it with Decode. A missing or unreadable file
// surfaces as an os error (not ErrCorrupt), so callers can stay quiet
// about the common cold-start case.
func ReadFile(path string, construct func(name string) (State, error)) (State, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil {
		size = int(fi.Size())
	}
	w, err := readBlob(f, size)
	defer w.release()
	if err != nil {
		return nil, "", err
	}
	return Decode(w.buf, construct)
}
