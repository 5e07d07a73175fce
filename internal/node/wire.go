package node

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The two list bodies of the wire.
//
// A blob list (POST /v1/blobs) is a stream of frames, each
//
//	uvarint len(digest), digest, uvarint len(stored), stored bytes
//
// and nothing else: the node reads one frame, checks it and stores it
// before it reads the next, so only one blob of a list is in its memory.
//
// A digest list (POST /v1/verify) is a JSON list of digests.

// maxDigestLen is the longest digest a frame or a list may carry.
const maxDigestLen = 128

// frameStep is the most a frame's read reserves ahead of the bytes that
// have arrived: a claimed length reserves no memory, and a true one costs
// a doubling buffer's copies.
const frameStep = 32 << 10

var errFraming = errors.New("node: broken blob list framing")

// AppendFrameHeader appends the header of one frame of a blob list: the
// digest, then the length of the stored bytes that follow it.
func AppendFrameHeader(dst []byte, digest string, stored int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(digest)))
	dst = append(dst, digest...)
	return binary.AppendUvarint(dst, uint64(stored))
}

// readFrame reads the next frame of a blob list, its stored bytes into buf
// (reused, grown as the bytes arrive). It returns io.EOF at a clean end of
// the list and an error wrapping errFraming for anything else that is not
// a whole frame.
func readFrame(r *bufio.Reader, buf []byte) (string, []byte, error) {
	dl, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return "", nil, io.EOF
	}
	if err != nil {
		return "", nil, fmt.Errorf("%w: digest length: %w", errFraming, err)
	}
	if dl == 0 || dl > maxDigestLen {
		return "", nil, fmt.Errorf("%w: digest length %d", errFraming, dl)
	}
	var d [maxDigestLen]byte
	if _, err := io.ReadFull(r, d[:dl]); err != nil {
		return "", nil, fmt.Errorf("%w: digest: %w", errFraming, io.ErrUnexpectedEOF)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("%w: stored length: %w", errFraming, io.ErrUnexpectedEOF)
	}
	if n > maxBlobBytes {
		return "", nil, fmt.Errorf("%w: stored length %d", errFraming, n)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		step := min(int(n)-len(buf), max(len(buf), frameStep))
		buf = slices.Grow(buf, step)
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+k]
		if err != nil {
			return "", nil, fmt.Errorf("%w: stored bytes: %w", errFraming, io.ErrUnexpectedEOF)
		}
	}
	return string(d[:dl]), buf, nil
}

// readDigests decodes a digest list: one JSON list of valid digests and
// nothing after it.
func readDigests(r io.Reader) ([]string, error) {
	var ds []string
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ds); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the list")
	}
	for _, d := range ds {
		if !validDigest(d) {
			return nil, fmt.Errorf("invalid digest %.80q", d)
		}
	}
	return ds, nil
}
