package diskcache

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	regalloc "repro"
	"repro/internal/irbin"
)

// binaryMagic opens every wire-form entry (EncodeBinary). It shares
// the LS* family with the codec ("LSIR") and corpus ("LSCO") magics.
const binaryMagic = "LSDE"

// EncodeBinary renders one cache entry in the wire form shared by the
// disk tier's entry files and the cluster's replication endpoints
// (GET /cache/export, POST /cache/seed in internal/serve):
//
//	"LSDE" | uvarint keyLen | key | irbin frame | JSON report
//
// The program travels as an internal/irbin frame, which carries
// MemWords and MemInit and decodes without the text parser; the key
// already content-addresses machine and configuration, so no machine
// definition accompanies it. The frame is self-delimiting, so the
// report simply occupies the rest of the buffer.
func EncodeBinary(key regalloc.CacheKey, e *regalloc.CachedAllocation) ([]byte, error) {
	if e == nil || e.Program == nil || e.Report == nil {
		return nil, fmt.Errorf("diskcache: encode: incomplete entry")
	}
	buf := make([]byte, 0, 1024)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = irbin.AppendProgram(buf, e.Program)
	rep, err := json.Marshal(e.Report)
	if err != nil {
		return nil, fmt.Errorf("diskcache: encode report: %w", err)
	}
	return append(buf, rep...), nil
}

// Decode parses an EncodeBinary entry back into a cache key and entry.
// Anything else — including an entry without the binary magic — is an
// error. The decoded program aliases data, which the caller must not
// modify or reuse while the entry lives.
func Decode(data []byte) (regalloc.CacheKey, *regalloc.CachedAllocation, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return "", nil, fmt.Errorf("diskcache: decode: missing %q magic", binaryMagic)
	}
	data = data[len(binaryMagic):]
	keyLen, n := binary.Uvarint(data)
	if n <= 0 || keyLen == 0 || keyLen > uint64(len(data)-n) {
		return "", nil, fmt.Errorf("diskcache: decode: bad binary key length")
	}
	key := string(data[n : n+int(keyLen)])
	rest := data[n+int(keyLen):]
	// The decoded program aliases data zero-copy.
	prog, frameLen, err := irbin.NewArena().Decode(rest)
	if err != nil {
		return "", nil, fmt.Errorf("diskcache: decode program: %w", err)
	}
	var rep regalloc.Report
	if err := json.Unmarshal(rest[frameLen:], &rep); err != nil {
		return "", nil, fmt.Errorf("diskcache: decode report: %w", err)
	}
	return regalloc.CacheKey(key), &regalloc.CachedAllocation{Program: prog, Report: &rep}, nil
}
