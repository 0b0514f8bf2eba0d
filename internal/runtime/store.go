package runtime

import "fmt"

// Store is a node-private dataflow store: the general and message-payload
// buffer slots a graph reserves at build time (see ptg.Env). Values are
// write-once: producing into an occupied slot is a dataflow bug and panics,
// and TakeBufSlot empties a buffer slot, enforcing the single-consumer
// discipline of halo payloads. Slot accesses are plain array indexing with
// no lock or hash: the runtime's scheduling edges already order every slot
// producer before its consumer.
type Store struct {
	slots    []any
	bufSlots [][]byte
}

// NewStoreWithSlots returns an empty store carrying the given numbers of
// general and buffer slots.
func NewStoreWithSlots(general, buf int) *Store {
	return &Store{slots: make([]any, general), bufSlots: make([][]byte, buf)}
}

// PutSlot stores a write-once value in a general slot.
func (s *Store) PutSlot(slot int32, v any) {
	if v == nil {
		panic("runtime: PutSlot of nil value")
	}
	if s.slots[slot] != nil {
		panic(fmt.Sprintf("runtime: slot %d produced twice", slot))
	}
	s.slots[slot] = v
}

// GetSlot returns a general slot's value without removing it (nil when
// empty).
func (s *Store) GetSlot(slot int32) any { return s.slots[slot] }

// PutBufSlot deposits a payload in a buffer slot, panicking when the slot
// is occupied (duplicated delivery or slot-lifetime bug).
func (s *Store) PutBufSlot(slot int32, b []byte) {
	if b == nil {
		panic("runtime: PutBufSlot of nil payload")
	}
	if s.bufSlots[slot] != nil {
		panic(fmt.Sprintf("runtime: buffer slot %d produced twice", slot))
	}
	s.bufSlots[slot] = b
}

// TakeBufSlot removes and returns a buffer slot's payload, panicking when
// the slot is empty.
func (s *Store) TakeBufSlot(slot int32) []byte {
	b := s.bufSlots[slot]
	if b == nil {
		panic(fmt.Sprintf("runtime: buffer slot %d consumed before production", slot))
	}
	s.bufSlots[slot] = nil
	return b
}

// LiveBufSlots counts occupied buffer slots — zero after a hygienic run, in
// which every halo payload was consumed exactly once.
func (s *Store) LiveBufSlots() int {
	n := 0
	for _, b := range s.bufSlots {
		if b != nil {
			n++
		}
	}
	return n
}
