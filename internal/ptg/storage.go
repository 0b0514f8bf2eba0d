package ptg

// Storage is the per-task and per-edge backing of a built graph: the task
// list, the edge array, the task index and the point-to-point plan's
// out-edge and cross-edge arrays. Graph.Release hands it back once the
// graph is done with and Builder.Reuse builds the next graph into it, so a
// caller that builds and drops graphs of one shape in a loop allocates
// them once.
type Storage struct {
	tasks  []Task
	deps   []Edge
	index  []int32
	out    []OutEdge
	outOff []int32
	cross  []crossEdge
}

// Release ends the graph's life and returns its storage for Builder.Reuse.
// The graph, its plans and every Task or Deps slice read from it must not
// be used afterwards: the next graph built into the storage overwrites
// them. Release clears the graph, so a later use fails instead of reading
// another graph's tasks.
func (g *Graph) Release() *Storage {
	s := &Storage{tasks: g.Tasks[:0], deps: g.deps[:0], index: g.index.slots}
	if p := g.plan; p != nil {
		s.out, s.outOff, s.cross = p.out[:0], p.outOff[:0], p.cross[:0]
	}
	*g = Graph{}
	return s
}

// Reuse makes the builder lay its graph out in s's arrays wherever they
// are large enough, instead of allocating them. Call it before the first
// AddTask; s belongs to the builder from then on.
func (b *Builder) Reuse(s *Storage) {
	if s != nil {
		b.store = *s
	}
}

// take returns n elements of *spare when it holds that many, giving up
// the spare, or n fresh ones. A taken spare keeps its old contents.
func take[T any](spare *[]T, n int) []T {
	if n <= cap(*spare) {
		s := (*spare)[:n]
		*spare = nil
		return s
	}
	return make([]T, n)
}
