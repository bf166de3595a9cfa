package serve

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refCacheKey is the fmt-based cacheKey that served before the key was
// written into one buffer, kept verbatim as the referee: FuzzCacheKey
// holds the new key to it byte for byte, so persisted stores and the
// cluster ring keep their addresses.
func refCacheKey(canonicalSrc string, bindings map[string]int, netName string, o *MapRequestOptions) string {
	h := sha256.New()
	part := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	// "v2": the options digest switched from the deprecated force
	// spelling to the merged algo value, so v1-era persisted stores stay
	// loadable but go cold rather than aliasing across schema versions.
	part("v2", canonicalSrc, netName)
	names := make([]string, 0, len(bindings))
	for k := range bindings {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		part(fmt.Sprintf("%s=%d", k, bindings[k]))
	}
	if o != nil {
		part(fmt.Sprintf("algo=%s|b=%d|mm=%t|refine=%t",
			o.Algo, o.MaxTasksPerProc, o.MaximumMatchingRouter, o.Refine))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// FuzzCacheKey is cacheKey's differential: over any canonical text,
// network name, zero to four bindings (any names, any values, negative
// ones included), no options or any option values, the key must equal
// refCacheKey's byte for byte. nbind picks how many of the four
// name/value pairs are bound; a repeated name binds once, as in a map.
func FuzzCacheKey(f *testing.F) {
	f.Add(ringSource, "hypercube(3)", 1, "n", int64(8), "", int64(0), "", int64(0), "", int64(0), true, "arbitrary", 0, false, false, 0, 0, 0, false, false)
	f.Add("", "", 0, "", int64(0), "", int64(0), "", int64(0), "", int64(0), false, "", 0, false, false, 0, 0, 0, false, false)
	f.Add("prog\x00with nul", "mesh(4,4)", 4, "s", int64(-2), "n", int64(15), "é=", int64(-1<<62), "n", int64(3), true, "auto|b=1", -7, true, true, 5, 9, -1, true, true)
	// A source past cacheKey's 1 KiB stack buffer.
	f.Add(strings.Repeat(ringSource, 8), "ring(8)", 2, "n", int64(8), "m", int64(-8), "", int64(0), "", int64(0), false, "", 0, false, false, 0, 0, 0, false, false)
	f.Add(ringVariant, "hier(4,4,4,8)", 3, "a", int64(1<<40), "b", int64(-1), "c", int64(0), "", int64(0), true, "multilevel", 1<<20, false, true, 0, 0, 3, false, true)
	f.Fuzz(func(t *testing.T, src, net string, nbind int,
		k0 string, v0 int64, k1 string, v1 int64, k2 string, v2 int64, k3 string, v3 int64,
		withOpts bool, algo string, maxPer int, mm, refine bool,
		timeout, stageTimeout, parallelism int, check, nocache bool) {
		bindings := map[string]int{}
		keys := []string{k0, k1, k2, k3}
		vals := []int64{v0, v1, v2, v3}
		for i := 0; i < (nbind%5+5)%5; i++ {
			bindings[keys[i]] = int(vals[i])
		}
		var o *MapRequestOptions
		if withOpts {
			o = &MapRequestOptions{Algo: algo, Check: check, NoCache: nocache,
				MaxTasksPerProc: maxPer, MaximumMatchingRouter: mm, Refine: refine,
				TimeoutMS: timeout, StageTimeoutMS: stageTimeout, Parallelism: parallelism}
		}
		if got, want := cacheKey(src, bindings, net, o), refCacheKey(src, bindings, net, o); got != want {
			t.Fatalf("cacheKey = %s, refCacheKey = %s (bindings %v, options %+v)", got, want, bindings, o)
		}
	})
}
