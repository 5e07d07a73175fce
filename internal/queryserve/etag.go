package queryserve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// ETags are derived from content digests, never from mtimes or serving
// state: the ETag of a record is the sha256 of its canonical submission
// JSON, so it is identical on every node serving the same archived bytes,
// survives restarts and rebuilds, and changes exactly when the content
// does. Derived resources (exports, search pages) extend the content
// digest with the parameters that shape the response, so a format or query
// change busts caches while a re-request of the same bytes revalidates.

// RecordETag digests a record's canonical submission encoding.
func RecordETag(r *hepdata.Record) (etag string, err error) {
	if err = r.Validate(); err == nil {
		etag, err = canonicalETag(r)
	}
	if err != nil {
		return "", fmt.Errorf("queryserve: etag for %s: %w", r.ID(), err)
	}
	return etag, nil
}

// canonicalBufs recycles the scratch buffers canonical encodings are
// written into; a digest needs the bytes only until it is taken.
var canonicalBufs = sync.Pool{New: func() any { return new([]byte) }}

// canonicalETag digests r's canonical encoding without validating r.
func canonicalETag(r *hepdata.Record) (etag string, err error) {
	err = withCanonical(r, func(canonical []byte) { etag = digestETag(canonical) })
	return etag, err
}

// withCanonical hands use r's canonical encoding in a pooled buffer,
// which use must not retain. It does not validate r.
func withCanonical(r *hepdata.Record, use func(canonical []byte)) error {
	buf := canonicalBufs.Get().(*[]byte)
	defer canonicalBufs.Put(buf)
	out, err := hepdata.AppendRecord((*buf)[:0], r)
	if err != nil {
		return err
	}
	*buf = out
	use(out)
	return nil
}

// DatasetETag digests a dataset's canonical JSON encoding. encoding/json
// emits map keys in sorted order, so the metadata map cannot perturb the
// digest.
func DatasetETag(d *catalog.Dataset) (string, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return "", fmt.Errorf("queryserve: etag for dataset %s: %w", d.Name, err)
	}
	return digestETag(data), nil
}

// DerivedETag extends a content ETag with the parameters of a derived
// response (an export format, a search shape), producing a new strong
// validator that changes when either the content or the derivation does.
func DerivedETag(base string, params ...string) string {
	h := sha256.New()
	h.Write([]byte(strings.Trim(base, `"`)))
	for _, p := range params {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return quoteDigest(h.Sum(nil))
}

func digestETag(data []byte) string {
	sum := sha256.Sum256(data)
	return quoteDigest(sum[:])
}

// quoteDigest renders a strong ETag: the first 16 digest bytes, hex, in
// the RFC 9110 quoted form. The text is built on the stack and converted
// once, so an ETag costs one allocation.
func quoteDigest(sum []byte) string {
	var q [34]byte
	q[0], q[33] = '"', '"'
	hex.Encode(q[1:33], sum[:16])
	return string(q[:])
}

// etagMatches implements the If-None-Match comparison: a literal "*"
// matches any current representation, otherwise any listed validator must
// equal the current one (weak prefixes are ignored for the byte-serving
// GET case).
func etagMatches(header, current string) bool {
	if header == "" {
		return false
	}
	for more := true; more; {
		var part string
		part, header, more = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == current {
			return true
		}
	}
	return false
}
