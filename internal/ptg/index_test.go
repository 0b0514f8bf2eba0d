package ptg

import (
	"math"
	"strings"
	"testing"
)

// fuzzClasses is the class domain of FuzzBuilderIndex: the empty class, a
// short one, the stencil graphs' own, and two long ones sharing a prefix.
var fuzzClasses = []string{"", "a", "st", strings.Repeat("x", 40), strings.Repeat("x", 39) + "y"}

// fuzzID decodes a task ID from two bytes over a small domain, so that
// sequences collide and repeat: five classes, I and J in [-2, 1], K in
// [-2, 1] or math.MinInt.
func fuzzID(x, y byte) TaskID {
	id := TaskID{
		Class: fuzzClasses[int(x)%len(fuzzClasses)],
		I:     int(x/8%4) - 2,
		J:     int(y%4) - 2,
		K:     int(y/4%4) - 2,
	}
	if y >= 0xF0 {
		id.K = math.MinInt
	}
	return id
}

// FuzzBuilderIndex drives a random sequence of AddTask, AddDep, index
// lookups and Grow calls against a Builder and checks every result against
// a map oracle, then checks Graph.Lookup over the whole domain after
// Build. Each operation takes three input bytes: the operation, then the
// two bytes of an ID (AddDep takes a second ID from the following two,
// Grow the first byte as its task count).
func FuzzBuilderIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 2, 1, 2})                                  // add, duplicate, look up
	f.Add([]byte{0, 0, 0, 0, 3, 3, 0, 4, 0xF1, 1, 0, 0, 4, 0xF1, 2, 9, 9})    // empty and long classes, a dep
	f.Add([]byte{3, 200, 0, 0, 8, 5, 0, 16, 5, 0, 24, 5, 1, 8, 5, 16, 5})     // grow first, negative parameters
	f.Add([]byte{0, 3, 7, 0, 4, 7, 1, 3, 7, 4, 7, 1, 4, 7, 3, 7, 2, 3, 7})    // long classes differing in one byte
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7}) // past the first table
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewBuilder(1)
		oracle := map[TaskID]int32{}
		deps := 0
		for len(ops) >= 3 {
			op, arg, id := ops[0]%4, ops[1], fuzzID(ops[1], ops[2])
			ops = ops[3:]
			switch op {
			case 0:
				idx, err := b.AddTask(Task{ID: id})
				want, dup := oracle[id]
				switch {
				case dup && err == nil:
					t.Fatalf("AddTask(%v) accepted a duplicate of task %d", id, want)
				case !dup && err != nil:
					t.Fatalf("AddTask(%v): %v", id, err)
				case !dup && idx != int32(len(oracle)):
					t.Fatalf("AddTask(%v) = %d, want %d", id, idx, len(oracle))
				}
				if !dup {
					oracle[id] = idx
				}
			case 1:
				if len(ops) < 2 {
					return
				}
				prod := fuzzID(ops[0], ops[1])
				ops = ops[2:]
				ci, cok := oracle[id]
				pi, pok := oracle[prod]
				if cok && pok {
					// Keep the graph acyclic: the later task consumes.
					if ci == pi {
						continue
					}
					if ci < pi {
						id, prod = prod, id
					}
				}
				err := b.AddDep(id, prod, Dep{})
				if (err == nil) != (cok && pok) {
					t.Fatalf("AddDep(%v, %v) = %v, oracle knows consumer %v, producer %v", id, prod, err, cok, pok)
				}
				if err == nil {
					deps++
				}
			case 2:
				idx, ok := b.index.lookup(b.tasks, id)
				if want, known := oracle[id]; ok != known || (ok && idx != want) {
					t.Fatalf("lookup(%v) = %d, %v; oracle %d, %v", id, idx, ok, want, known)
				}
			case 3:
				b.Grow(int(arg%64), 0)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Tasks) != len(oracle) || g.ComputeStats().Deps != deps {
			t.Fatalf("built %d tasks, %d deps; oracle %d, %d", len(g.Tasks), g.ComputeStats().Deps, len(oracle), deps)
		}
		for x := 0; x < 256; x += 7 {
			for y := 0; y < 256; y += 3 {
				id := fuzzID(byte(x), byte(y))
				idx, ok := g.Lookup(id)
				if want, known := oracle[id]; ok != known || (ok && idx != want) {
					t.Fatalf("Graph.Lookup(%v) = %d, %v; oracle %d, %v", id, idx, ok, want, known)
				}
			}
		}
	})
}

// TestAddDepIdxBytesRange checks that a payload size an Edge cannot store
// is an error, not a silent truncation.
func TestAddDepIdxBytesRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask(Task{ID: id("a", 0, 0, 0), Node: 0})
	b.AddTask(Task{ID: id("b", 0, 0, 0), Node: 1})
	for _, n := range []int{-1, math.MaxInt32 + 1, math.MaxInt} {
		if err := b.AddDepIdx(1, 0, Dep{Bytes: n}); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("AddDepIdx with %d payload bytes: err = %v", n, err)
		}
	}
	if err := b.AddDepIdx(1, 0, Dep{Bytes: math.MaxInt32}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Tasks[1].Deps[0].Bytes; got != math.MaxInt32 {
		t.Errorf("stored payload %d, want %d", got, math.MaxInt32)
	}
}

// TestBuilderRejectsBadKind checks that a task kind outside the known
// kinds is an error at AddTask, before Build counts kinds by index.
func TestBuilderRejectsBadKind(t *testing.T) {
	b := NewBuilder(1)
	if _, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Kind: NumKinds}); err == nil {
		t.Error("kind out of range must be rejected")
	}
	if _, err := b.AddTask(Task{ID: id("a", 0, 0, 0), Kind: KindBoundary}); err != nil {
		t.Errorf("a rejected task must not occupy its ID: %v", err)
	}
}
