package core

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Work Stealing (DESIGN.md §6): the decentralized ablation of the paper's
// central claim. Every processor starts exactly like Load On Demand — a
// contiguous 1/n split of the block-grouped seeds and a private LRU block
// cache — but when its local pool runs dry it probes victims for batches
// of inactive streamlines instead of idling. There is no master and no
// global counter: termination is detected by a token circulating the
// processor ring, carrying every processor's monotone completion count.
//
// Protocol invariants:
//
//   - A streamline is resident on exactly one processor (or in flight in
//     exactly one steal reply), so summed completion counts can never
//     exceed the seed total and equality implies global termination.
//   - The token is passed only by idle processors; a busy processor holds
//     it until its pool drains, so the ring generates no traffic while
//     progress is being made elsewhere. Parked future seeds (staggered
//     injection, DESIGN.md §9) count as busy: a processor waiting on its
//     release schedule holds the token through the stall, which keeps the
//     completion-sum argument intact and prevents a zero-cost ring spin
//     at one virtual instant while the whole ring is starved.
//   - A hungry processor probes at most Fanout distinct victims, then
//     goes quiet until the token's next visit re-arms it — probe traffic
//     is bounded by token traffic, which is bounded by idleness.

// --- work-stealing wire messages ---

// msgStealReq asks a victim for a batch of inactive streamlines; the
// sender is identified by the envelope.
type msgStealReq struct{}

// Bytes implements comm.Message.
func (msgStealReq) Bytes() int64 { return 16 }

// msgStealMiss is a victim's empty-handed reply (successful steals answer
// with msgStreamlines instead).
type msgStealMiss struct{}

// Bytes implements comm.Message.
func (msgStealMiss) Bytes() int64 { return 8 }

// msgToken is the termination token: counts[i] is the last completion
// count processor i wrote while holding it. regen marks a token the
// recovery layer rebuilt after the previous one died with its holder
// (counted as RingReforms by the receiver).
type msgToken struct {
	counts []int64
	regen  bool
}

// Bytes implements comm.Message.
func (m msgToken) Bytes() int64 { return 16 + int64(len(m.counts))*8 }

// --- construction ---

func (r *runState) buildStealing() {
	n := r.cfg.Procs
	recs := r.seedRecords() // block-grouped, exactly like Load On Demand
	r.thieves = make([]*thief, n)

	for i := 0; i < n; i++ {
		i := i
		lo := i * len(recs) / n
		hi := (i + 1) * len(recs) / n
		mine := recs[lo:hi]
		var t *thief
		proc := r.kernel.Spawn(fmt.Sprintf("stealing-%d", i), func(p *sim.Proc) {
			t.run(mine)
		})
		t = newThief(r, r.newWorker(proc, i, r.cfg.CacheBlocks), i, n)
	}
}

// thief is the per-processor state of the work-stealing algorithm. The
// name reflects the role every processor eventually plays; each is also a
// victim for its peers.
type thief struct {
	r  *runState
	w  *worker
	me int // endpoint index
	n  int // total processors

	// pool is the Load On Demand work pool (pool.go), the part of the
	// algorithm stealing inherits unchanged.
	pool *pool

	// completed counts terminations on this processor, monotonically; the
	// token aggregates these across the ring.
	completed int64
	holding   bool    // this processor currently holds the token
	counts    []int64 // the token's payload while held

	// Probe state for one hungry round.
	outstanding bool  // a probe is in flight, await its reply
	probeVictim int   // target of the outstanding probe
	probesLeft  int   // probes remaining before going quiet
	fanout      int   // resolved probe budget per round
	order       []int // victim order (random policy: fresh permutation per round)
	orderPos    int
	ring        int // roundrobin cursor into the peer list
	peers       []int
	rng         *rand.Rand

	done bool
}

func newThief(r *runState, w *worker, me, n int) *thief {
	t := &thief{
		r:    r,
		w:    w,
		me:   me,
		n:    n,
		pool: newPool(r, w),
		rng:  rand.New(rand.NewSource(int64(104729 + me))),
	}
	for p := 0; p < n; p++ {
		if p != me {
			t.peers = append(t.peers, p)
		}
	}
	t.fanout = r.cfg.Steal.Fanout
	if t.fanout <= 0 || t.fanout > len(t.peers) {
		t.fanout = len(t.peers)
	}
	if me == 0 {
		// The token starts on processor 0 — an arbitrary but fixed ring
		// position, not a coordinator: every processor treats it alike.
		t.holding = true
		t.counts = make([]int64, n)
		r.tokenHolder = 0
	}
	t.resetProbes()
	r.thieves[me] = t
	return t
}

// --- main loop ---

func (t *thief) run(mine []seedRec) {
	defer func() { t.w.stats.EndTime = t.w.proc.Now() }()

	if t.r.faultsOn {
		// Watch every peer: a Death notification prunes the probe set
		// and cancels a probe whose reply will never come.
		for _, p := range t.peers {
			t.w.end.WatchPeer(p)
		}
	}
	for _, rec := range mine {
		t.pool.adopt(rec.streamline())
	}
	if !t.w.checkMemory("initial streamlines") {
		return
	}

	for !t.done {
		// Stay responsive: drain requests and replies between every unit
		// of work so victims answer probes promptly.
		for {
			env, ok := t.w.end.TryRecv()
			if !ok {
				break
			}
			t.handle(env)
			if t.done {
				return
			}
		}
		if t.r.failed() {
			return
		}
		t.pool.releaseReady()

		if len(t.pool.workable) > 0 {
			if t.pool.advanceOne() {
				t.completed++
			}
			continue
		}
		if len(t.pool.pending) > 0 {
			t.pool.loadBest()
			continue
		}

		// Dry of released work. The token moves only when the pool is
		// completely empty — parked future seeds count as busy, so a
		// processor waiting on its injection schedule holds the token
		// through the stall. Passing while parked would let a zero-cost
		// ring spin at one virtual instant (every hop free, the release
		// timer never reached); holding instead keeps the sum argument
		// intact, since the holder's own completions are still missing.
		if t.holding && t.pool.active == 0 {
			t.passToken()
			continue
		}
		if !t.outstanding && t.probesLeft > 0 && t.n > 1 {
			t.probe()
			continue
		}
		// Quiet: wait for a reply, the token, work, termination — or
		// this processor's next scheduled seed release.
		if next, ok := t.pool.nextRelease(); ok {
			if env, got := t.w.stallForRelease(next); got {
				t.handle(env)
			}
			continue
		}
		t.handle(t.w.end.Recv())
	}
}

func (t *thief) handle(env comm.Envelope) {
	switch m := env.Payload.(type) {
	case msgStealReq:
		t.reply(env.From)
	case msgStreamlines: // a successful steal reply
		for _, sl := range m.sls {
			t.pool.adopt(sl)
		}
		t.w.stats.StealHits++
		if tr := t.r.tr; tr != nil {
			tr.Mark(t.me, obs.MarkStealHit, t.w.proc.Now(), int64(env.From), int64(len(m.sls)))
		}
		t.outstanding = false
		t.resetProbes()
		t.w.checkMemory("stolen streamlines")
	case msgStealMiss:
		// The probe budget was spent when the probe was sent (probe());
		// a miss only frees the thief to try the next victim.
		t.outstanding = false
	case msgToken:
		if m.regen {
			t.w.stats.RingReforms++
		}
		t.r.tokenHolder = t.me
		t.counts = m.counts
		t.holding = true
		t.resetProbes()
		t.pool.releaseReady()
		if t.pool.active == 0 {
			// Idle processors forward immediately; busy ones — parked
			// future seeds included — hold the token until their pool
			// drains (see the main loop for why parked work must hold).
			t.passToken()
		}
	case msgAdopt:
		// A dead peer's streamlines, restarted from seed by the
		// recovery layer and re-homed here.
		for _, rec := range m.recs {
			t.pool.adopt(rec.streamline())
		}
		t.w.stats.SeedsAdopted += int64(len(m.recs))
		if tr := t.r.tr; tr != nil {
			tr.Mark(t.me, obs.MarkAdopt, t.w.proc.Now(), int64(len(m.recs)), 0)
		}
		t.resetProbes()
		t.w.checkMemory("adopted streamlines")
	case comm.Death:
		t.dropPeer(m.Peer)
	case msgAllDone:
		t.done = true
	}
}

// dropPeer prunes a dead peer from the probe set, resizes the fanout to
// the surviving ring, and cancels a probe outstanding against it (its
// reply will never come).
func (t *thief) dropPeer(peer int) {
	for i, p := range t.peers {
		if p == peer {
			t.peers = append(t.peers[:i], t.peers[i+1:]...)
			break
		}
	}
	f := t.r.cfg.Steal.Fanout
	if f <= 0 || f > len(t.peers) {
		f = len(t.peers)
	}
	t.fanout = f
	if t.outstanding && t.probeVictim == peer {
		t.outstanding = false
	}
	t.resetProbes()
}

// --- stealing ---

// resetProbes re-arms a full hungry round: a fresh probe budget and, for
// the random policy, a fresh victim permutation.
func (t *thief) resetProbes() {
	t.probesLeft = t.fanout
	if t.r.cfg.Steal.Victim == VictimRandom && len(t.peers) > 0 {
		t.order = append(t.order[:0], t.peers...)
		t.rng.Shuffle(len(t.order), func(i, j int) {
			t.order[i], t.order[j] = t.order[j], t.order[i]
		})
		t.orderPos = 0
	}
}

// probe sends one steal request to the next victim of the current round.
func (t *thief) probe() {
	var victim int
	switch t.r.cfg.Steal.Victim {
	case VictimRoundRobin:
		victim = t.peers[t.ring%len(t.peers)]
		t.ring++
	default: // VictimRandom
		victim = t.order[t.orderPos%len(t.order)]
		t.orderPos++
	}
	t.probesLeft--
	t.outstanding = true
	t.probeVictim = victim
	t.w.stats.StealAttempts++
	if tr := t.r.tr; tr != nil {
		tr.Mark(t.me, obs.MarkStealProbe, t.w.proc.Now(), int64(victim), 0)
	}
	t.w.end.Send(victim, msgStealReq{})
}

// reply answers a probe: hand over up to Batch inactive streamlines
// (keeping at least one if any remain), pending blocks first — the thief
// pays their I/O instead of us — then the oldest workable ones.
func (t *thief) reply(to int) {
	loot := t.pickLoot()
	if len(loot) == 0 {
		t.w.end.Send(to, msgStealMiss{})
		return
	}
	t.pool.active -= len(loot)
	t.w.sendStreamlines(to, loot)
}

// pickLoot selects and removes the streamlines a steal reply carries.
func (t *thief) pickLoot() []*trace.Streamline {
	pl := t.pool
	target := t.r.cfg.Steal.Batch
	if target > pl.active-1 {
		target = pl.active - 1
	}
	if target <= 0 {
		return nil
	}
	var loot []*trace.Streamline
	for _, b := range sortedBlocks(nil, pl.pending) {
		if len(loot) >= target {
			break
		}
		sls := pl.pending[b]
		take := target - len(loot)
		if take > len(sls) {
			take = len(sls)
		}
		loot = append(loot, sls[len(sls)-take:]...)
		if take == len(sls) {
			delete(pl.pending, b)
		} else {
			pl.pending[b] = sls[:len(sls)-take]
		}
	}
	if take := target - len(loot); take > 0 && len(pl.workable) > 0 {
		if take > len(pl.workable) {
			take = len(pl.workable)
		}
		loot = append(loot, pl.workable[:take]...)
		pl.workable = append(pl.workable[:0], pl.workable[take:]...)
	}
	return loot
}

// --- termination ring ---

// passToken records this processor's completion count, declares global
// termination if every streamline is accounted for, and otherwise
// forwards the token around the ring.
func (t *thief) passToken() {
	t.counts[t.me] = t.completed
	if t.r.faultsOn {
		// A dead processor can never write its own entry again, so fold
		// the ledger's record of its completions into the token —
		// otherwise a token written before the victim's last completions
		// would circulate with a stale entry and the sum could never
		// reach the total. Counts are monotone; overwriting is safe.
		for i, th := range t.r.thieves {
			if i != t.me && th != nil && t.r.procs[i].Failed() && th.completed > t.counts[i] {
				t.counts[i] = th.completed
			}
		}
	}
	var sum int64
	for _, c := range t.counts {
		sum += c
	}
	if sum == int64(len(t.r.prob.Seeds)) {
		t.w.end.Broadcast(msgAllDone{})
		t.done = true
		t.r.tokenHolder = -1
		return
	}
	if t.n == 1 {
		// A lone processor passes the token only when dry, which means
		// everything completed; reaching here is a bookkeeping bug.
		t.r.fail(fmt.Errorf("core: stealing token count %d of %d on a single processor", sum, len(t.r.prob.Seeds)))
		return
	}
	next := (t.me + 1) % t.n
	if t.r.faultsOn {
		// Re-form the ring around dead peers: pass to the next live
		// processor. The token stays attributed to this holder until the
		// send completes, so a death mid-post regenerates it correctly.
		next = t.r.nextRunning(t.me)
		if next < 0 {
			// Every peer is gone and the sum still falls short: work was
			// lost, which the salvage layer must make impossible.
			t.r.fail(fmt.Errorf("core: stealing token count %d of %d with no live peer", sum, len(t.r.prob.Seeds)))
			return
		}
	}
	t.holding = false
	t.w.stats.TokensPassed++
	if tr := t.r.tr; tr != nil {
		tr.Mark(t.me, obs.MarkTokenPass, t.w.proc.Now(), int64(next), 0)
	}
	t.w.end.Send(next, msgToken{counts: t.counts})
	t.r.tokenHolder = -1
}
