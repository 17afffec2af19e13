package engine

import (
	"sync"

	"qens/internal/ml"
)

// modelPool recycles model instances per spec fingerprint. Building a
// model allocates its full weight/optimizer/scratch arena; at the
// paper's NN size (64 hidden units) that is tens of kilobytes per
// request, and under the query gateway a node sees one build per
// training round. Reusing an arena via ml.Model.Reinit is bit-exact
// with a fresh build — the same RNG draws happen in the same order —
// so pooling changes performance, never results.
type modelPool struct {
	mu sync.Mutex
	// free holds the idle instances per fingerprint. The list is
	// behind a pointer so a lookup keyed by a stack-built fingerprint
	// (string(key) in an index expression) never allocates; only the
	// first put of a new fingerprint stores a key string.
	free map[string]*[]ml.Model
	// capPerKey bounds retained instances per fingerprint; beyond it
	// returned models are dropped for GC (a node rarely needs more
	// live models than its parallelism).
	capPerKey int
}

// fingerprintBuf sizes the stack buffer a fingerprint is built in;
// the paper's specs need about 90 bytes, and a longer one spills to
// the heap without changing the key.
type fingerprintBuf [128]byte

func (p *modelPool) init(parallelism int) {
	p.free = make(map[string]*[]ml.Model)
	p.capPerKey = parallelism + 1
}

// get returns a model initialized exactly as spec.New would with the
// given seed, with params loaded when non-empty. reused reports
// whether an arena was recycled.
func (p *modelPool) get(spec ml.Spec, seed uint64, params ml.Params) (m ml.Model, reused bool, err error) {
	var buf fingerprintBuf
	key := spec.AppendFingerprint(buf[:0])
	p.mu.Lock()
	if list := p.free[string(key)]; list != nil && len(*list) > 0 {
		m = (*list)[len(*list)-1]
		*list = (*list)[:len(*list)-1]
	}
	p.mu.Unlock()
	if m != nil {
		if err := m.Reinit(seed, params); err != nil {
			return nil, true, err
		}
		return m, true, nil
	}
	spec.Seed = seed
	m, err = spec.New()
	if err != nil {
		return nil, false, err
	}
	if len(params.Values) > 0 {
		if err := m.SetParams(params); err != nil {
			return nil, false, err
		}
	}
	return m, false, nil
}

// put returns a model to the pool for later Reinit.
func (p *modelPool) put(spec ml.Spec, m ml.Model) {
	if m == nil {
		return
	}
	var buf fingerprintBuf
	key := spec.AppendFingerprint(buf[:0])
	p.mu.Lock()
	list := p.free[string(key)]
	if list == nil {
		list = new([]ml.Model)
		p.free[string(key)] = list
	}
	if len(*list) < p.capPerKey {
		*list = append(*list, m)
	}
	p.mu.Unlock()
}

// acquireModel is the engine-level wrapper recording pool hit/miss
// metrics; the caller hands the instance back with e.pool.put.
func (e *Engine) acquireModel(spec ml.Spec, seed uint64, params ml.Params) (ml.Model, error) {
	m, reused, err := e.pool.get(spec, seed, params)
	if err != nil {
		return nil, err
	}
	if reused {
		e.metrics.poolHits.Inc()
	} else {
		e.metrics.poolMisses.Inc()
	}
	return m, nil
}
