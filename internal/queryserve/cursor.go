package queryserve

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
)

// Cursors implement keyset pagination: a cursor names the last result of
// the previous page by rank position — (score, key) for ranked search,
// (0, key) for key-ordered listings — never an offset. The next page is
// "everything strictly after that position", so pages stay stable while
// the corpus grows: documents are immutable and scores content-derived,
// which means a concurrent publish can only insert new positions, never
// move existing ones, and a walk sees every pre-existing document exactly
// once. The encoded form is opaque to clients and versioned so a future
// layout change can reject stale cursors loudly instead of misreading
// them.

// Cursor is a decoded pagination anchor.
type Cursor struct {
	Score int32
	Key   string
}

const cursorV1 = "v1"

// Encode renders the cursor in its opaque wire form.
func (c Cursor) Encode() string {
	raw := cursorV1 + "\x00" + strconv.FormatInt(int64(c.Score), 10) + "\x00" + c.Key
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// DecodeCursor parses a wire cursor; empty input is the zero anchor
// (start from the top). Only the spelling Encode writes is accepted: base64
// skips newlines and ignores trailing bits, and a score parses with a sign
// or leading zeros, so one anchor would otherwise have many cursors — and
// a page cache keyed on the query string as many entries.
func DecodeCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Cursor{}, fmt.Errorf("queryserve: undecodable cursor: %w", err)
	}
	parts := strings.SplitN(string(raw), "\x00", 3)
	if len(parts) != 3 || parts[0] != cursorV1 {
		return Cursor{}, fmt.Errorf("queryserve: malformed cursor")
	}
	score, err := strconv.ParseInt(parts[1], 10, 32)
	if err != nil {
		return Cursor{}, fmt.Errorf("queryserve: malformed cursor score: %w", err)
	}
	c := Cursor{Score: int32(score), Key: parts[2]}
	if c.Encode() != s {
		return Cursor{}, fmt.Errorf("queryserve: cursor is not in canonical form")
	}
	return c, nil
}

// After reports whether a hit at (score, key) sorts strictly after the
// cursor in result order (score desc, key asc).
func (c Cursor) After(score int32, key string) bool {
	if score != c.Score {
		return score < c.Score
	}
	return key > c.Key
}
