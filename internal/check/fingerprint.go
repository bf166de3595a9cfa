package check

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"oregami/internal/mapping"
)

// Fingerprint serializes everything the pipeline decides — partition,
// placement, method, and every route in sorted phase order — into one
// stable string. Two runs of the pipeline on the same inputs must produce
// identical fingerprints; the determinism tests run every seed twice and
// diff the fingerprints to catch map-iteration-order leaks.
//
// The bytes are exactly those of the fmt form
//
//	method=%s\npart=%v\nplace=%v\n then routes[%s]=%v %v ...\n per phase
//
// (stored fingerprints and served digests depend on them), written with
// strconv.AppendInt into one builder sized up front: the function runs
// on every cache hit and every miss.
func Fingerprint(m *mapping.Mapping) string {
	if m == nil {
		return "<nil mapping>"
	}
	phases := make([]string, 0, len(m.Routes))
	size := len("method=\npart=\nplace=\n") + len(m.Method) + intsLen(m.Part) + intsLen(m.Place)
	for name, rs := range m.Routes {
		phases = append(phases, name)
		size += len("routes[]=\n") + len(name) + len(rs)
		for _, r := range rs {
			size += intsLen(r)
		}
	}
	sort.Strings(phases)
	var b strings.Builder
	b.Grow(size)
	b.WriteString("method=")
	b.WriteString(m.Method)
	b.WriteString("\npart=")
	writeInts(&b, m.Part)
	b.WriteString("\nplace=")
	writeInts(&b, m.Place)
	b.WriteByte('\n')
	for _, name := range phases {
		b.WriteString("routes[")
		b.WriteString(name)
		b.WriteString("]=")
		for i, r := range m.Routes[name] {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeInts(&b, r)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeInts writes xs as fmt's %v does: "[1 2 3]", "[]" for nil or empty.
func writeInts(b *strings.Builder, xs []int) {
	var digits [20]byte
	b.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(x), 10))
	}
	b.WriteByte(']')
}

// intsLen is the length writeInts produces for xs.
func intsLen(xs []int) int {
	n := 2
	if len(xs) > 1 {
		n += len(xs) - 1
	}
	for _, x := range xs {
		n += decimalLen(x)
	}
	return n
}

// decimalLen is the length of strconv.Itoa(x).
func decimalLen(x int) int {
	n := 1
	u := uint64(x)
	if x < 0 {
		n++
		u = -u
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// FingerprintHash returns the hex SHA-256 digest of Fingerprint(m): the
// compact form served to clients and stored alongside cached mappings so
// a cache hit can be integrity-checked against the full recomputed
// fingerprint without holding the long string.
func FingerprintHash(m *mapping.Mapping) string {
	sum := sha256.Sum256([]byte(Fingerprint(m)))
	return hex.EncodeToString(sum[:])
}
