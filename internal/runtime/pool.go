package runtime

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the runtime's buffer arena: size-classed free lists
// for the message payloads and halo buffers that dominate steady-state
// allocation on the real-execution hot path. Buffers cycle
// producer -> wire -> consumer -> pool, so after warm-up the pack/send/
// unpack path performs no heap allocation at all (the persistent-buffer
// discipline of partitioned-MPI stencils).
//
// Ownership rule for wire buffers: every Message.Data is a whole arena
// buffer (never a sub-slice of another) with exactly one owner, and
// whoever ends the message returns it with PutBuf. That is the consumer
// after unpacking it, the sender after a remote send or once an ack
// settles the retained original, or anyone who discards the message. A
// Dep's Pack hands its returned buffer over the same way; a point-to-point
// payload travels as is, a bundle's wire buffer is a fresh arena buffer
// its sender packs the members into, and a netcomm data frame is read into
// one.
//
// A hand-rolled mutex-protected stack per size class is used instead of
// sync.Pool: storing slices in a sync.Pool boxes the slice header on every
// Put (one 24-byte allocation), which would defeat the zero-alloc goal, and
// sync.Pool's GC-clearing makes allocation behavior non-deterministic under
// testing.AllocsPerRun.

// Classes: class 0 holds up to 64 elements; above it, every power of two is
// split into poolSubClasses equal steps, so a buffer's capacity exceeds the
// request by at most 1/32. The float arena holds every tile store of a real
// run between solves, so its rounding is live heap: a 258x258 tile store
// gets 67 584 floats, not the 131 072 of the next power of two nor the
// 73 728 of eight steps per octave, which kept 6 MiB more live across the
// 128 stores of a 2048x2048 grid in 256x256 tiles. The classes cover
// capacities up to 1<<poolMaxBits elements (1 GiB in the byte arena);
// larger buffers bypass the pool entirely. The top classes exist for
// coalesced halo bundles, whose wire buffers aggregate every per-dependency
// payload of a (src node, dst node, epoch) triple and so run an order of
// magnitude larger than any single halo message.
const (
	poolMinBits    = 6 // smallest class: 64 elements
	poolMaxBits    = 30
	poolStepBits   = 5
	poolSubClasses = 1 << poolStepBits
	poolMaxClass   = (poolMaxBits - poolMinBits) * poolSubClasses
	poolClasses    = poolMaxClass + 1
	// poolMaxFree caps retained buffers per class so a burst cannot pin
	// memory forever; beyond it, Put drops the buffer for the GC.
	poolMaxFree = 4096
	// poolMaxRetained caps the bytes one arena keeps on its free lists, so
	// a long-lived process does not hold its largest job's tile stores
	// forever. It fits a 32 MB grid's tile pairs and a 200 MiB bundle.
	poolMaxRetained = 512 << 20
)

// classCap returns the capacity, in elements, of class c.
func classCap(c int) int {
	return (poolSubClasses + c%poolSubClasses) << (c/poolSubClasses + poolMinBits - poolStepBits)
}

// sizeClass returns the class whose capacity is the smallest one holding n
// elements, or -1 when n exceeds the largest class.
func sizeClass(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	// The smallest class holding n lies one above the largest class whose
	// capacity is <= n-1.
	c := homeClass(n - 1)
	if c < 0 || c == poolMaxClass {
		return -1
	}
	return c + 1
}

// homeClass returns the class a buffer of capacity c feeds when returned:
// the largest class whose capacity is <= c (a Get from it may re-slice up to
// the class capacity), or -1 when the capacity is below the smallest class
// or beyond the largest one (retaining such buffers would pin arbitrary
// memory). The class is the octave of c's top bit plus the next
// poolStepBits bits below it.
func homeClass(c int) int {
	if c < 1<<poolMinBits {
		return -1
	}
	top := bits.Len(uint(c)) - 1
	h := (top-poolMinBits)*poolSubClasses + (c>>(top-poolStepBits))%poolSubClasses
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
	// retained is the capacity, in bytes, of every buffer on a free list.
	retained atomic.Int64
}

// bytesOf returns the retained-bytes charge of a buffer: its full capacity.
func bytesOf[T any](b []T) int64 {
	var zero T
	return int64(cap(b)) * int64(unsafe.Sizeof(zero))
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
		p.retained.Add(-bytesOf(b))
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]T, n, classCap(c))
}

// put returns a slice to the pool. Undersized or oversized slices are
// dropped; retaining them would either starve Gets (too small) or pin
// arbitrary memory (beyond the largest class). So is a buffer that would
// take the arena past poolMaxRetained, or its class past poolMaxFree.
func (p *slicePool[T]) put(b []T) {
	c := homeClass(cap(b))
	if c < 0 {
		return
	}
	size := bytesOf(b)
	if p.retained.Add(size) > poolMaxRetained {
		p.retained.Add(-size)
		return
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.free) < poolMaxFree {
		cl.free = append(cl.free, b[:0])
		cl.mu.Unlock()
		return
	}
	cl.mu.Unlock()
	p.retained.Add(-size)
}

// The process-wide arenas: payload bytes, and the float64 tile stores of
// real runs and scatter buffers of the PETSc analog's VecScatter. Sharing
// one arena across all virtual nodes is a deliberate physical shortcut (the
// nodes share a heap anyway); the dataflow discipline guarantees a buffer is
// owned by exactly one side at a time, so isolation semantics are
// unaffected.
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
