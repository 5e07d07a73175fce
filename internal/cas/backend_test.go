package cas

import (
	"errors"
	"testing"
)

func TestCorruptErrorCarriesDigests(t *testing.T) {
	s := NewStore()
	d, err := s.Put([]byte("fixity matters"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(d); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(d)
	if err == nil {
		t.Fatal("corrupt blob fetched without error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption does not match ErrCorrupt sentinel: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption is not a *CorruptError: %v", err)
	}
	if ce.Digest != d {
		t.Fatalf("CorruptError digest = %q, want %q", ce.Digest, d)
	}
	if ce.Actual == "" && ce.Cause == nil {
		t.Fatal("CorruptError carries neither an actual digest nor a decode cause")
	}
	if ce.Actual != "" && ce.Actual == ce.Digest {
		t.Fatal("actual digest equals expected on a corrupt blob")
	}
}

func TestNotFoundErrorTyped(t *testing.T) {
	s := NewStore()
	_, err := s.Get("feedfacefeedface")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob does not match ErrNotFound: %v", err)
	}
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("missing blob is not a *NotFoundError: %v", err)
	}
	if nf.Digest != "feedfacefeedface" {
		t.Fatalf("NotFoundError digest = %q", nf.Digest)
	}
}
