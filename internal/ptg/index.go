package ptg

// taskIndex maps TaskIDs to task indices for the Builder and, once built,
// the Graph. It is an open-addressing table with linear probing over a
// power-of-two array of int32 slots, each holding a task index plus one (0
// marks an empty slot); the keys are the IDs in the task list itself. It
// holds no pointer, so the garbage collector never scans it, and it stays
// at most half full.
type taskIndex struct {
	slots []int32
	shift uint8 // 64 - log2(len(slots)): hashID's top bits pick the home slot
}

// hashID mixes a task ID into 64 bits whose top bits are well spread:
// FNV-1a over the class, then a multiply-xorshift round per parameter.
func hashID(id TaskID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id.Class); i++ {
		h = (h ^ uint64(id.Class[i])) * 1099511628211
	}
	for _, v := range [3]int{id.I, id.J, id.K} {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 31
	}
	return h * 0x9e3779b97f4a7c15
}

// probe returns the slot holding id in the table over tasks, or the empty
// slot where it belongs. The table must not be empty.
func (x *taskIndex) probe(tasks []Task, id TaskID) (pos int, found bool) {
	mask := len(x.slots) - 1
	for pos = int(hashID(id) >> x.shift); ; pos = (pos + 1) & mask {
		s := x.slots[pos]
		if s == 0 {
			return pos, false
		}
		if tasks[s-1].ID == id {
			return pos, true
		}
	}
}

// lookup returns the index of the task named id.
func (x *taskIndex) lookup(tasks []Task, id TaskID) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	pos, found := x.probe(tasks, id)
	return x.slots[pos] - 1, found
}

// insert records that task idx, about to be appended to tasks, is named
// id, unless a task of tasks already is: it reports whether id was new.
func (x *taskIndex) insert(tasks []Task, id TaskID, idx int32) bool {
	x.reserve(tasks, len(tasks)+1)
	pos, found := x.probe(tasks, id)
	if !found {
		x.slots[pos] = idx + 1
	}
	return !found
}

// reserve sizes the table for n tasks at most half full, rehashing the
// tasks already indexed when it must grow.
func (x *taskIndex) reserve(tasks []Task, n int) {
	if 2*n <= len(x.slots) {
		return
	}
	size, shift := 8, uint8(61)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	x.slots, x.shift = make([]int32, size), shift
	mask := size - 1
	for i := range tasks {
		pos := int(hashID(tasks[i].ID) >> shift)
		for x.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		x.slots[pos] = int32(i) + 1
	}
}
