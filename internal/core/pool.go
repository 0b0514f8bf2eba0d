package core

import (
	"slices"
	"sync"

	"castencil/internal/ptg"
)

// maxSpareGraph caps the bytes of idle graphs the pool keeps: a larger graph
// runs long enough that building it afresh costs a small share. Tests lower it.
var maxSpareGraph = 64 << 20

// taskBytes is what the pool counts per task of a graph: with its share of
// the arrays, plans, transfers, Migrations and closures, a graph holds
// 340–970 B live per task over the shapes of TestGraphPoolEstimate.
const taskBytes = 512

// graphKey is what fixes a graph's structure: its variant and the fields of
// its Config (defaults applied) other than Init, Boundary, Weights and
// Weights9, which task bodies read through the builder when they run.
type graphKey struct {
	v                                                       Variant
	n, tileRows, tileCols, p, q, steps, stepSize, wavefront int
	ninePoint, withBodies                                   bool
}

// prepared is a built graph, the builder it reads inputs through, and the
// bytes the pool counts for it.
type prepared struct {
	key   graphKey
	g     *ptg.Graph
	bd    *builder
	bytes int
}

// graphs holds the process's idle prepared graphs, oldest first: RunReal and
// Simulate take one per run and put it back once the engine has returned.
var graphs graphPool

type graphPool struct {
	mu    sync.Mutex
	idle  []*prepared
	bytes int
}

// get hands out a graph of v's shape under cfg (defaults applied, validated)
// bound to cfg's inputs. An idle one leaves the pool, so concurrent runs get
// their own. A miss builds afresh.
func (p *graphPool) get(v Variant, cfg Config) (*prepared, error) {
	key := graphKey{v, cfg.N, cfg.TileRows, cfg.TileCols, cfg.P, cfg.Q, cfg.Steps,
		cfg.StepSize, cfg.Wavefront, cfg.NinePoint, cfg.WithBodies}
	p.mu.Lock()
	if i := slices.IndexFunc(p.idle, func(e *prepared) bool { return e.key == key }); i >= 0 {
		e := p.idle[i]
		p.idle = slices.Delete(p.idle, i, i+1)
		p.bytes -= e.bytes
		p.mu.Unlock()
		e.bd.cfg = cfg
		return e, nil
	}
	p.mu.Unlock()
	g, bd, err := buildGraph(v, cfg)
	return &prepared{key: key, g: g, bd: bd}, err
}

// put returns e once its run, and every goroutine of it, has ended, without
// the run's Init and Boundary, which may hold caller data of any size. A
// graph larger than maxSpareGraph on its own is dropped and evicts nothing;
// otherwise put keeps e and drops the oldest idle graphs while their bytes
// exceed the cap.
func (p *graphPool) put(e *prepared) {
	e.bd.cfg.Init, e.bd.cfg.Boundary = nil, nil
	e.bytes = len(e.g.Tasks) * taskBytes
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.bytes > maxSpareGraph {
		return
	}
	p.idle = append(p.idle, e)
	p.bytes += e.bytes
	for p.bytes > maxSpareGraph {
		p.bytes -= p.idle[0].bytes
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}
