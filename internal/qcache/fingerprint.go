package qcache

import "perm/internal/sql"

// Fingerprint returns a 16-hex-digit hash of sql.Normalize(text): a
// stable identity for a query shape, shared by the slow-query log,
// EXPLAIN ANALYZE output, the statement-statistics registry and benchmark
// tooling.
func Fingerprint(text string) string {
	return FingerprintNormalized(sql.Normalize(text))
}

// FingerprintNormalized hashes an already-normalized statement text
// (callers that also need the normalized form avoid normalizing twice):
// FNV-1a over its bytes, as 16 lower-case hex digits.
func FingerprintNormalized(norm string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(norm); i++ {
		h = (h ^ uint64(norm[i])) * 1099511628211
	}
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(hex[:])
}
