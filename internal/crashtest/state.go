// Package crashtest is a systematic crash-state enumeration harness in
// the CrashMonkey/ALICE tradition.  It wraps the store's volumes in
// recording crash devices (disk.CrashDevice), captures every write and
// force barrier issued by a seeded mixed workload, then reconstructs
// the set of device states a power cut could have left behind — clean
// prefixes between barriers, torn multi-page writes, and sampled
// per-page subsets of the unforced writes in a force epoch — and runs
// full recovery plus machine-checked invariants against each one.
//
// The durability model is disk.CrashImage's, the same one every
// recovery test's CrashDevice applies: a single page write is atomic,
// writes become stable only when a covering Force returns, and between
// barriers the kernel and device may persist any subset of outstanding
// page writes in any order.  A multi-page write may additionally be
// torn: an arbitrary prefix of its pages reaches the platter.
package crashtest

import (
	"hash/fnv"
	"math/rand"

	"github.com/eosdb/eos/internal/disk"
)

// chooser selects, for one page, which version survives the power cut:
// -1 keeps the durable base, k >= 0 keeps pending version k.
type chooser func(p disk.PageNum, versions int) int

// chooseNewest models the clean prefix: every outstanding write made it.
func chooseNewest(_ disk.PageNum, versions int) int { return versions - 1 }

// chooseBase models total loss: no unforced write made it.
func chooseBase(_ disk.PageNum, _ int) int { return -1 }

// chooseRand picks per page uniformly among base and every pending
// version — the arbitrary subset/reorder outcome of a power cut.
func chooseRand(rng *rand.Rand) chooser {
	return func(_ disk.PageNum, versions int) int {
		return rng.Intn(versions+1) - 1
	}
}

// materialize flattens resolved pages into one contiguous image.
func materialize(pages [][]byte, ps int) []byte {
	img := make([]byte, len(pages)*ps)
	for i, p := range pages {
		if p != nil {
			copy(img[i*ps:], p)
		}
	}
	return img
}

// hashBytes fingerprints one page image.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
