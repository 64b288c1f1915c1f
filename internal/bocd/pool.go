package bocd

import "sync"

// Pool is a concurrency-safe free list of detectors. Continuous monitoring
// runs one SplitTimes pass per endpoint pair and per rank in every window,
// and each pass historically allocated a fresh Detector whose posterior
// buffers grow back to steady state from scratch; a Pool lets those passes
// reuse detectors via Reset instead. A Reset detector is indistinguishable
// from a newly constructed one, so pooling never changes results — it only
// recycles buffers — and any worker may use any pooled instance.
type Pool struct {
	mu   sync.Mutex
	free []*Detector
}

// NewPool returns an empty pool. Its Config argument carries nothing; the
// signature remains for bench/shadow.go until ROADMAP item 1(b).
func NewPool(Config) *Pool {
	return &Pool{}
}

// Get returns a detector in its initial state, reusing a pooled one when
// available.
func (p *Pool) Get() *Detector {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return d
	}
	p.mu.Unlock()
	return New()
}

// Put resets d and returns it to the pool for reuse.
func (p *Pool) Put(d *Detector) {
	if d == nil {
		return
	}
	d.Reset()
	p.mu.Lock()
	p.free = append(p.free, d)
	p.mu.Unlock()
}
