package diskcache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/irbin"
)

// FuzzDecodeEntry feeds arbitrary bytes to Decode, which reads both
// entry files and the network bytes of POST /cache/seed. Decode must
// never panic, and any entry it accepts must re-encode to a fixed
// point: EncodeBinary(Decode(EncodeBinary(Decode(x)))) equals
// EncodeBinary(Decode(x)).
//
//	go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 30s ./internal/diskcache
func FuzzDecodeEntry(f *testing.F) {
	key, entry := testEntry(f, 7)
	valid, err := EncodeBinary(key, entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(textFormEntry(f, key, entry))
	f.Add([]byte{})
	// Truncations at each section boundary and inside each section:
	// magic, key length, key, irbin frame, report.
	_, lenBytes := binary.Uvarint(valid[len(binaryMagic):])
	keyEnd := len(binaryMagic) + lenBytes + len(key)
	_, frameLen, err := irbin.NewArena().Decode(valid[keyEnd:])
	if err != nil {
		f.Fatal(err)
	}
	frameEnd := keyEnd + frameLen
	for _, cut := range []int{
		2, len(binaryMagic), len(binaryMagic) + lenBytes, keyEnd - 1, keyEnd,
		keyEnd + 4, (keyEnd + frameEnd) / 2, frameEnd - 1, frameEnd,
		frameEnd + 1, (frameEnd + len(valid)) / 2, len(valid) - 1,
	} {
		f.Add(bytes.Clone(valid[:cut]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		k, e, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		enc, err := EncodeBinary(k, e)
		if err != nil {
			t.Fatalf("re-encode of a decoded entry failed: %v", err)
		}
		k2, e2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of the canonical form failed: %v", err)
		}
		if k2 != k {
			t.Fatalf("key %q re-decoded as %q", k, k2)
		}
		re, err := EncodeBinary(k2, e2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("encode is not a fixed point: %d vs %d bytes", len(enc), len(re))
		}
	})
}
