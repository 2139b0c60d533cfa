package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"github.com/crrlab/crr/internal/predicate"
	"github.com/crrlab/crr/internal/regress"
)

// latticePar runs Algorithm 1 with a worker pool: independent
// condition parts are processed concurrently, the shared model set F is
// guarded by a mutex, and each worker drives the same hot path as the
// sequential engine (hotpath.go), so accept/force/split semantics —
// including MinSupport, Proposition 8 split sizing and the MaxNodes runaway
// guard with its coverage-forced drain — cannot diverge between engines.
// Compared to the sequential engine:
//
//   - the ind(C) queue ordering becomes best-effort (workers race over a
//     LIFO work list), so the Table IV ordering experiments require the
//     sequential engine;
//   - the discovered rule set is deterministic as a *coverage* (every part is
//     processed exactly once) but rule order, share attributions and exact
//     rule count can vary run-to-run when different workers win the race to
//     publish a shareable model.
//
// All Problem 1 invariants hold: the output covers D and every rule holds on
// its part. cfg.Workers < 0 selects runtime.NumCPU().
//
// Cancellation: a watcher goroutine aborts the pool when ctx is done, so
// every worker returns within one queue iteration and no goroutine outlives
// the call — wg.Wait() runs before returning on every path.
func latticePar(ctx context.Context, sub *Substrate) (*DiscoverResult, error) {
	cfg := sub.cfg
	workers := cfg.Workers
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers <= 1 {
		return latticeSeq(ctx, sub)
	}
	all := sub.all
	out := sub.NewResult()
	if len(all) == 0 {
		return out, nil
	}
	hl := sub.hot(false)
	root := &condItem{conj: predicate.NewConjunction(), idxs: all, gram: hl.rootGram(all)}
	st := &parState{
		cond:    sync.NewCond(&sync.Mutex{}),
		visited: map[string]bool{conjKey(root.conj.Normalize()): true},
		shared:  append([]regress.Model(nil), cfg.SeedModels...),
		ruleOf:  map[regress.Model]int{},
	}
	st.queue = append(st.queue, root)

	// The watcher turns context cancellation into a pool abort; doneCh is
	// closed after wg.Wait so the watcher never leaks either.
	doneCh := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			st.abort()
		case <-doneCh:
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := parWorker(ctx, hl, st, out); err != nil {
				select {
				case errs <- err:
				default:
				}
				st.abort()
			}
		}()
	}
	wg.Wait()
	close(doneCh)
	watchWG.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	// Stable output order: sort rules by their first conjunction rendering.
	sort.SliceStable(out.Rules.Rules, func(i, j int) bool {
		return ruleSortKey(&out.Rules.Rules[i]) < ruleSortKey(&out.Rules.Rules[j])
	})
	return out, nil
}

func ruleSortKey(r *CRR) string {
	if len(r.Cond.Conjs) == 0 {
		return ""
	}
	return conjKey(r.Cond.Conjs[0])
}

// parState is the shared state of the worker pool.
type parState struct {
	cond     *sync.Cond
	queue    []*condItem
	inflight int
	aborted  bool

	visited map[string]bool
	shared  []regress.Model
	ruleOf  map[regress.Model]int
}

func (st *parState) abort() {
	st.cond.L.Lock()
	st.aborted = true
	st.cond.L.Unlock()
	st.cond.Broadcast()
}

// next pops a work item, blocking while the queue is drained but peers are
// still expanding. ok is false when the search is complete or aborted.
func (st *parState) next() (*condItem, bool) {
	st.cond.L.Lock()
	defer st.cond.L.Unlock()
	for {
		if st.aborted {
			return nil, false
		}
		if len(st.queue) > 0 {
			item := st.queue[len(st.queue)-1]
			st.queue = st.queue[:len(st.queue)-1]
			st.inflight++
			return item, true
		}
		if st.inflight == 0 {
			return nil, false
		}
		st.cond.Wait()
	}
}

// done publishes the children of a finished item. Like the sequential
// engine's visited set, keys are normalized conjunctions, so equivalent
// refinements reached along different paths expand once.
func (st *parState) done(children []*condItem) {
	st.cond.L.Lock()
	for _, ch := range children {
		key := conjKey(ch.conj.Normalize())
		if !st.visited[key] {
			st.visited[key] = true
			st.queue = append(st.queue, ch)
		}
	}
	st.inflight--
	st.cond.L.Unlock()
	st.cond.Broadcast()
}

func parWorker(ctx context.Context, hl *hotLoop, st *parState, out *DiscoverResult) error {
	cfg := hl.cfg
	tel := hl.tel
	ws := hl.workspace()
	for {
		// Per-iteration cancellation point, mirroring the sequential
		// engine's queue-pop check (the watcher also aborts st, but this
		// keeps the bound at one iteration even mid-burst).
		if ctx.Err() != nil {
			return nil
		}
		item, ok := st.next()
		if !ok {
			return nil
		}
		var children []*condItem
		err := func() error {
			if len(item.idxs) == 0 {
				return nil
			}
			st.cond.L.Lock()
			capped := out.Stats.NodesExpanded >= cfg.MaxNodes
			var pool []regress.Model
			if !capped {
				out.Stats.NodesExpanded++
				pool = append(pool, st.shared...)
			}
			st.cond.L.Unlock()

			if capped {
				// The MaxNodes runaway guard tripped: stop refining and
				// force-accept a model for every remaining part, exactly
				// like the sequential engine's drain loop — Problem 1
				// requires Σ to cover D, so abandoned parts are not an
				// option. The expansion counter is checked and advanced
				// under the lock, so it never exceeds MaxNodes.
				p := ws.part(item.idxs)
				model, _, err := ws.trainPart(item, p)
				if err != nil {
					return err
				}
				emitPar(out, st, *cfg, model, ws.scanner.MaxAbs(model, p), item.conj)
				st.cond.L.Lock()
				out.Stats.ModelsTrained++
				out.Stats.ForcedRules++
				st.cond.L.Unlock()
				tel.trained.Inc()
				tel.forced.Inc()
				return nil
			}
			tel.nodes.Inc()

			ev, err := ws.evaluate(item, pool)
			if err != nil {
				return err
			}
			if ev.hit {
				conj := item.conj.Clone()
				conj.Builtin = conj.Builtin.WithYShift(ev.share.Delta0)
				st.cond.L.Lock()
				out.Stats.ShareHits++
				st.cond.L.Unlock()
				tel.shared.Inc()
				emitPar(out, st, *cfg, ev.model, ev.share.MaxErr, conj)
				return nil
			}
			st.cond.L.Lock()
			out.Stats.ModelsTrained++
			st.cond.L.Unlock()
			tel.trained.Inc()
			if ev.accept {
				emitPar(out, st, *cfg, ev.model, ev.maxErr, item.conj)
				st.cond.L.Lock()
				st.shared = append(st.shared, ev.model)
				if ev.forced {
					out.Stats.ForcedRules++
				}
				st.cond.L.Unlock()
				if ev.forced {
					tel.forced.Inc()
				}
				return nil
			}
			for _, ch := range ev.children {
				children = append(children, &condItem{conj: item.conj.And(ch.pred), idxs: ch.idxs, gram: ch.gram})
			}
			return nil
		}()
		st.done(children)
		st.cond.L.Lock()
		depth := len(st.queue)
		st.cond.L.Unlock()
		tel.queueDepth.Set(float64(depth))
		if err != nil {
			return err
		}
	}
}

// emitPar appends a rule under the shared lock, honoring FuseShared.
func emitPar(out *DiscoverResult, st *parState, cfg DiscoverConfig,
	model regress.Model, rho float64, conj predicate.Conjunction) {
	conj = conj.Normalize()
	st.cond.L.Lock()
	defer st.cond.L.Unlock()
	if cfg.FuseShared {
		if ri, ok := st.ruleOf[model]; ok {
			r := &out.Rules.Rules[ri]
			r.Cond.Conjs = append(r.Cond.Conjs, conj)
			if rho > r.Rho {
				r.Rho = rho
			}
			return
		}
		st.ruleOf[model] = len(out.Rules.Rules)
	}
	out.Rules.Rules = append(out.Rules.Rules, CRR{
		Model:  model,
		Rho:    rho,
		Cond:   predicate.NewDNF(conj),
		XAttrs: out.Rules.XAttrs,
		YAttr:  cfg.YAttr,
	})
}
