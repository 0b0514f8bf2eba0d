package runtime

import (
	"math/bits"
	"sync"
)

// This file implements the runtime's buffer arena: size-classed free lists
// for the message payloads and halo buffers that dominate steady-state
// allocation on the real-execution hot path. Buffers cycle
// producer -> wire -> consumer -> pool, so after warm-up the pack/send/
// unpack path performs no heap allocation at all (the persistent-buffer
// discipline of partitioned-MPI stencils).
//
// A hand-rolled mutex-protected stack per size class is used instead of
// sync.Pool: storing slices in a sync.Pool boxes the slice header on every
// Put (one 24-byte allocation), which would defeat the zero-alloc goal, and
// sync.Pool's GC-clearing makes allocation behavior non-deterministic under
// testing.AllocsPerRun.

// poolClasses covers capacities up to 1<<(poolClasses-1+poolMinBits) bytes
// (currently 1 GiB); larger buffers bypass the pool entirely. The top classes
// exist for coalesced halo bundles, whose wire buffers aggregate every
// per-dependency payload of a (src node, dst node, epoch) triple and so run
// an order of magnitude larger than any single halo message.
const (
	poolMinBits  = 6 // smallest class: 64 elements
	poolClasses  = 25
	poolMaxClass = poolClasses - 1
	// poolMaxFree caps retained buffers per class so a burst cannot pin
	// memory forever; beyond it, Put drops the buffer for the GC.
	poolMaxFree = 4096
)

// sizeClass returns the class whose capacity 1<<(class+poolMinBits) is the
// smallest one holding n elements, or -1 when n exceeds the largest class.
func sizeClass(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinBits
	if c > poolMaxClass {
		return -1
	}
	return c
}

// homeClass returns the class a buffer of capacity c feeds when returned:
// the largest class whose capacity is <= c (a Get from it may re-slice up to
// the class capacity), or -1 when the capacity is below the smallest class
// or beyond the largest one (retaining such buffers would pin arbitrary
// memory).
func homeClass(c int) int {
	if c < 1<<poolMinBits {
		return -1
	}
	h := bits.Len(uint(c)) - 1 - poolMinBits
	if h > poolMaxClass {
		return -1
	}
	return h
}

// slicePool is a size-classed free-list pool for slices of T.
type slicePool[T any] struct {
	classes [poolClasses]struct {
		mu   sync.Mutex
		free [][]T
	}
}

// get returns a slice of length n (contents arbitrary — callers overwrite).
func (p *slicePool[T]) get(n int) []T {
	c := sizeClass(n)
	if c < 0 {
		return make([]T, n)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		b := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]T, n, 1<<(c+poolMinBits))
}

// put returns a slice to the pool. Undersized or oversized slices are
// dropped; retaining them would either starve Gets (too small) or pin
// arbitrary memory (beyond the largest class).
func (p *slicePool[T]) put(b []T) {
	c := homeClass(cap(b))
	if c < 0 {
		return
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.free) < poolMaxFree {
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}

// The process-wide arenas: payload bytes, and the float64 scatter buffers
// of the PETSc analog's VecScatter. Sharing one arena across all virtual
// nodes is a deliberate physical shortcut (the nodes share a heap anyway);
// the dataflow discipline guarantees a buffer is owned by exactly one side
// at a time, so isolation semantics are unaffected.
var (
	defaultBytes  slicePool[byte]
	defaultFloats slicePool[float64]
)

// GetBuf returns an n-byte payload buffer from the default arena.
func GetBuf(n int) []byte { return defaultBytes.get(n) }

// PutBuf recycles a payload buffer into the default arena. Callers must not
// touch the buffer afterwards.
func PutBuf(b []byte) { defaultBytes.put(b) }

// GetFloats returns an n-element float64 buffer from the default arena.
func GetFloats(n int) []float64 { return defaultFloats.get(n) }

// PutFloats recycles a float64 buffer into the default arena.
func PutFloats(b []float64) { defaultFloats.put(b) }
