package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Hybrid Master/Slave (paper Section 4.3): dedicated master processes
// coordinate groups of W slaves, dynamically assigning both streamlines
// and blocks. Masters react to slave status messages by applying five
// rules — Assign-loaded, Assign-unloaded, Send-force, Send-hint, Load —
// in the paper's 7-step sequence, balancing computation, I/O and
// communication via the NO (overload) and NL (load-threshold) parameters.
//
// Topology: with P total processors and group size W, the first
// max(1, P/(W+1)) processors are masters and the rest slaves, assigned to
// masters round-robin. Master 0 additionally aggregates global completion
// counts and broadcasts termination, and masters share unassigned seeds
// when a group runs dry ("the multiple masters coordinate balancing the
// work between them").

// --- hybrid wire messages ---

// msgAssign hands fresh seed points (all in one block) to a slave; the
// slave loads the block if it is not already resident, which makes the
// same message serve both Assign-loaded and Assign-unloaded.
type msgAssign struct {
	recs  []seedRec
	block grid.BlockID
}

// Bytes implements comm.Message.
func (m msgAssign) Bytes() int64 { return 16 + int64(len(m.recs))*32 }

// msgLoad instructs a slave to load a block (the Load rule).
type msgLoad struct{ block grid.BlockID }

// Bytes implements comm.Message.
func (msgLoad) Bytes() int64 { return 16 }

// msgSendForce instructs a slave to send its streamlines residing in
// block to the slave at endpoint "to" (the Send-force rule).
type msgSendForce struct {
	block grid.BlockID
	to    int
}

// Bytes implements comm.Message.
func (msgSendForce) Bytes() int64 { return 24 }

// msgSendHint suggests that a slave offload streamlines from the given
// set of blocks to the slave at endpoint "to" when appropriate (the
// Send-hint rule); slaves may ignore it ("some measure of autonomy").
type msgSendHint struct {
	to     int
	blocks []grid.BlockID
}

// Bytes implements comm.Message.
func (m msgSendHint) Bytes() int64 { return 16 + int64(len(m.blocks))*8 }

// msgStatus is the slave→master state report driving all master
// decisions.
type msgStatus struct {
	slave          int // endpoint index
	active         int
	perBlock       map[grid.BlockID]int // active streamlines by current block
	loaded         []grid.BlockID
	completedDelta int
	needsWork      bool // no further workable streamlines after this report
}

// Bytes implements comm.Message.
func (m msgStatus) Bytes() int64 {
	return 64 + int64(len(m.perBlock))*16 + int64(len(m.loaded))*8
}

// msgTerminate shuts a slave down.
type msgTerminate struct{}

// Bytes implements comm.Message.
func (msgTerminate) Bytes() int64 { return 8 }

// msgSeedRequest asks a peer master for spare seeds.
type msgSeedRequest struct{ from int }

// Bytes implements comm.Message.
func (msgSeedRequest) Bytes() int64 { return 16 }

// msgSeedShare transfers unassigned seeds between masters (may be empty).
type msgSeedShare struct{ recs []seedRec }

// Bytes implements comm.Message.
func (m msgSeedShare) Bytes() int64 { return 16 + int64(len(m.recs))*32 }

// --- topology ---

// sortedBlocks returns the keys of a block-keyed map in ascending order,
// so that decision loops are deterministic. The keys are written over
// buf's storage, so a caller that keeps the result as its next buf sorts
// without allocating.
func sortedBlocks[V any](buf []grid.BlockID, m map[grid.BlockID]V) []grid.BlockID {
	buf = buf[:0]
	for b := range m {
		buf = append(buf, b)
	}
	slices.Sort(buf)
	return buf
}

// hybridTopology computes master/slave counts: one master per W slaves.
func hybridTopology(procs, w int) (masters, slaves int) {
	masters = procs / (w + 1)
	if masters < 1 {
		masters = 1
	}
	if masters > procs-1 {
		masters = procs - 1
	}
	return masters, procs - masters
}

func (r *runState) buildHybrid() {
	hp := r.cfg.Hybrid
	nm, ns := hybridTopology(r.cfg.Procs, hp.W)
	r.hybNM = nm
	r.hybMasters = make([]*master, r.cfg.Procs)
	r.hybSlaves = make([]*slave, r.cfg.Procs)
	for m := 0; m < nm; m++ {
		r.masterEPs = append(r.masterEPs, m)
	}
	r.coordEP = 0

	// Partition seeds (block-grouped) across masters.
	recs := r.seedRecords()
	pools := make([][]seedRec, nm)
	for m := 0; m < nm; m++ {
		lo := m * len(recs) / nm
		hi := (m + 1) * len(recs) / nm
		pools[m] = recs[lo:hi]
	}

	// Endpoints 0..nm-1 are masters, nm..nm+ns-1 are slaves. Slave i
	// belongs to master i%nm.
	groups := make([][]int, nm)
	for s := 0; s < ns; s++ {
		m := s % nm
		groups[m] = append(groups[m], nm+s)
	}

	for m := 0; m < nm; m++ {
		m := m
		var w *worker
		proc := r.kernel.Spawn(fmt.Sprintf("master-%d", m), func(p *sim.Proc) {
			newMaster(r, w, m, nm, groups[m], pools[m]).run()
		})
		w = r.newWorker(proc, m, 0)
	}
	for s := 0; s < ns; s++ {
		s := s
		var w *worker
		proc := r.kernel.Spawn(fmt.Sprintf("slave-%d", s), func(p *sim.Proc) {
			newSlave(r, w, s%nm).run()
		})
		w = r.newWorker(proc, nm+s, r.cfg.CacheBlocks)
	}
}

// --- slave ---

type slave struct {
	r      *runState
	w      *worker
	master int // master endpoint index

	byBlock        map[grid.BlockID][]*trace.Streamline // active, by current block
	active         int
	completedDelta int
	done           bool

	// inHand is the streamline being advanced (in neither byBlock nor a
	// message); the fault-recovery salvage reads it if this processor
	// dies mid-advance.
	inHand *trace.Streamline
	// promoted holds a pending msgPromote: this slave takes over its
	// dead master's role as soon as the current handler returns.
	promoted *msgPromote
}

func newSlave(r *runState, w *worker, master int) *slave {
	s := &slave{r: r, w: w, master: master, byBlock: make(map[grid.BlockID][]*trace.Streamline)}
	r.hybSlaves[w.end.Index()] = s
	return s
}

func (s *slave) run() {
	defer func() { s.w.stats.EndTime = s.w.proc.Now() }()
	for !s.done {
		// Process everything the master (or peers) sent.
		for {
			env, ok := s.w.end.TryRecv()
			if !ok {
				break
			}
			s.handle(env)
			if s.done {
				return
			}
			if s.promoted != nil {
				s.runAsMaster(*s.promoted)
				return
			}
		}
		if s.r.failed() {
			return
		}

		sl, ev := s.pickWorkable()
		if sl == nil {
			// Out of work: report status and wait for instructions
			// (Algorithm 1's "Process messages from Master").
			s.sendStatus(true)
			s.handle(s.w.end.Recv())
			if s.promoted != nil {
				s.runAsMaster(*s.promoted)
				return
			}
			continue
		}
		// Latency hiding: post the status before advancing the last
		// workable streamline.
		if s.workableCount() == 1 {
			s.sendStatus(true)
		}
		s.advanceInLoaded(sl, ev)
		if !s.w.checkMemory("streamline geometry") {
			return
		}
	}
}

// pickWorkable returns an active streamline residing in a loaded block,
// preferring most-recently-used blocks.
func (s *slave) pickWorkable() (*trace.Streamline, grid.Evaluator) {
	for _, b := range s.w.cache.Loaded() {
		sls := s.byBlock[b]
		if len(sls) == 0 {
			continue
		}
		sl := sls[len(sls)-1]
		s.byBlock[b] = sls[:len(sls)-1]
		ev, _ := s.w.cache.TryGet(b)
		return sl, ev
	}
	return nil, nil
}

// workableCount counts active streamlines in loaded blocks.
func (s *slave) workableCount() int {
	n := 0
	for _, b := range s.w.cache.Loaded() {
		n += len(s.byBlock[b])
	}
	return n
}

// advanceInLoaded integrates sl across resident blocks until it leaves
// them or terminates.
func (s *slave) advanceInLoaded(sl *trace.Streamline, ev grid.Evaluator) {
	d := s.r.prob.Provider.Decomp()
	s.inHand = sl
	for {
		prev := sl.Block
		if sl.Steps >= s.r.prob.maxSteps() {
			sl.Status = trace.MaxedOut
		} else {
			s.w.advance(sl, ev, d.Bounds(sl.Block))
		}
		if sl.Status.Terminated() {
			s.r.complete(s.w, sl)
			s.active--
			s.completedDelta++
			s.inHand = nil
			return
		}
		next, ok := s.w.cache.TryGet(sl.Block)
		if !ok {
			// Left the resident set: issue its read now, then park it for
			// the master's decisions — if the master assigns it back here
			// (or Load-rules the block), the I/O has partly happened.
			s.w.prefetchOnExit(prev, sl)
			s.byBlock[sl.Block] = append(s.byBlock[sl.Block], sl)
			s.inHand = nil
			return
		}
		ev = next
	}
}

func (s *slave) addStreamline(sl *trace.Streamline) {
	// Everything a slave ever holds is released work: masters park
	// future seeds and assign them only once their schedule fires, and
	// migrated arrivals were advanced by their sender.
	s.w.noteActivated(1)
	s.w.adoptStreamline(sl)
	s.byBlock[sl.Block] = append(s.byBlock[sl.Block], sl)
	s.active++
}

func (s *slave) sendStatus(needsWorkIfIdle bool) {
	per := make(map[grid.BlockID]int, len(s.byBlock))
	for b, sls := range s.byBlock {
		if len(sls) > 0 {
			per[b] = len(sls)
		}
	}
	st := msgStatus{
		slave:          s.w.end.Index(),
		active:         s.active,
		perBlock:       per,
		loaded:         s.w.cache.Loaded(),
		completedDelta: s.completedDelta,
		needsWork:      needsWorkIfIdle && s.workableCount() <= 1,
	}
	s.completedDelta = 0
	s.w.end.Send(s.master, st)
}

func (s *slave) handle(env comm.Envelope) {
	switch m := env.Payload.(type) {
	case msgAssign:
		for _, rec := range m.recs {
			// rec.streamline() keeps the release time on the materialized
			// object (assigned seeds are always already released, so this
			// is bookkeeping consistency, not scheduling).
			s.addStreamline(rec.streamline())
		}
		if _, ok := s.w.cache.TryGet(m.block); !ok {
			s.w.cache.Get(m.block) // Assign-unloaded: "Slave loads block B."
		}
		s.w.checkMemory("assigned block")
	case msgLoad:
		if _, ok := s.w.cache.TryGet(m.block); !ok {
			s.w.cache.Get(m.block)
		}
		s.w.checkMemory("loaded block")
	case msgSendForce:
		sls := s.byBlock[m.block]
		if len(sls) > 0 {
			delete(s.byBlock, m.block)
			s.active -= len(sls)
			s.w.sendStreamlines(m.to, sls)
			// Tell the master ownership changed so its model converges.
			s.sendStatus(false)
		}
	case msgSendHint:
		// Offload streamlines in the hinted blocks to the starving slave.
		// If the block is loaded here we keep half (both slaves can then
		// make progress); if not we part with all of them. No appropriate
		// streamlines means the hint is ignored (slave autonomy).
		var out []*trace.Streamline
		for _, b := range m.blocks {
			sls := s.byBlock[b]
			if len(sls) == 0 {
				continue
			}
			give := len(sls)
			if s.w.cache.Has(b) {
				give = (len(sls) + 1) / 2
			}
			out = append(out, sls[len(sls)-give:]...)
			if give == len(sls) {
				delete(s.byBlock, b)
			} else {
				s.byBlock[b] = sls[:len(sls)-give]
			}
			s.active -= give
		}
		if len(out) > 0 {
			s.w.sendStreamlines(m.to, out)
			s.sendStatus(false)
		}
	case msgStreamlines:
		for _, sl := range m.sls {
			s.addStreamline(sl)
		}
		s.w.checkMemory("migrated streamlines")
	case msgRemaster:
		// Our master died; a sibling was promoted in its place. Report
		// in so the new master's model of this slave converges.
		s.master = m.master
		s.sendStatus(true)
	case msgPromote:
		// This slave is the dead master's successor; the transition runs
		// in the main loop as soon as this handler returns.
		pm := m
		s.promoted = &pm
	case msgTerminate:
		s.done = true
	}
}

// runAsMaster is the failover transition (DESIGN.md §11): this slave
// stops integrating and takes over its dead master's role, seeded with
// the salvaged pool and the surviving group. Its own in-progress
// streamlines restart from seed in the new pool — integration is
// deterministic from the seed, so the recomputed geometry is identical.
func (s *slave) runAsMaster(pm msgPromote) {
	r, w := s.r, s.w
	ep := w.end.Index()
	w.stats.MasterFailovers++
	w.stats.SeedsAdopted += int64(len(pm.recs))
	if tr := r.tr; tr != nil {
		tr.Mark(ep, obs.MarkFailover, w.proc.Now(), int64(len(pm.flock)), int64(len(pm.recs)))
	}
	recs := append([]seedRec(nil), pm.recs...)
	for _, b := range sortedBlocks(nil, s.byBlock) {
		for _, sl := range s.byBlock[b] {
			recs = append(recs, r.restartRec(sl))
			w.releaseStreamline(sl)
		}
	}
	w.noteDeactivated(s.active)
	s.byBlock = nil
	r.hybSlaves[ep] = nil
	sortRecs(recs)

	m := newMaster(r, w, ep, r.hybNM, pm.flock, recs)
	m.resumed = true
	m.run()
}

// --- master ---

// slaveRec is the master's model of one slave, updated from statuses and
// optimistically adjusted when instructions are sent.
type slaveRec struct {
	ep              int
	active          int
	perBlock        map[grid.BlockID]int
	loaded          map[grid.BlockID]bool
	needsWork       bool
	hintOutstanding bool
}

type master struct {
	r      *runState
	w      *worker
	index  int // master ordinal (0..nm-1); endpoint index equals ordinal
	nm     int
	group  []*slaveRec    // the live slaves, by ascending endpoint
	blocks []grid.BlockID // scratch for sortedBlocks; no loop using it nests another

	pool      map[grid.BlockID][]seedRec // unassigned released seeds by block
	poolCount int
	// future holds this master's seeds whose injection schedule has not
	// released them yet, ordered by (release, id); they are invisible to
	// every assignment rule and to master-to-master sharing until
	// releaseDue moves them into the pool.
	future []seedRec
	rng    *rand.Rand

	// Coordinator (master 0) state.
	totalSeeds     int
	totalCompleted int
	// Non-coordinator masters forward completions to master 0.
	done          bool
	requestedSeed bool // outstanding seed request to a peer

	// resumed marks a master built by failover promotion: it skips the
	// initial assignment (its slaves already hold work) and rechecks the
	// completion ledger on entry.
	resumed bool
}

func newMaster(r *runState, w *worker, index, nm int, group []int, pool []seedRec) *master {
	m := &master{
		r:     r,
		w:     w,
		index: index,
		nm:    nm,
		pool:  make(map[grid.BlockID][]seedRec),
		rng:   rand.New(rand.NewSource(int64(7919 + index))),
	}
	for _, ep := range group {
		m.group = append(m.group, newSlaveRec(ep))
	}
	slices.SortFunc(m.group, func(a, b *slaveRec) int { return a.ep - b.ep })
	// Split released from future seeds relative to the current clock:
	// zero at build time (where release > 0 means future, as before),
	// mid-run for a failover promotion adopting a dead master's pool.
	now := w.proc.Now()
	for _, rec := range pool {
		if rec.release > now {
			m.future = append(m.future, rec)
			continue
		}
		m.pool[rec.block] = append(m.pool[rec.block], rec)
		m.poolCount++
	}
	sort.Slice(m.future, func(i, j int) bool {
		if m.future[i].release != m.future[j].release {
			return m.future[i].release < m.future[j].release
		}
		return m.future[i].id < m.future[j].id
	})
	if index == 0 {
		m.totalSeeds = len(r.prob.Seeds)
	}
	r.hybMasters[index] = m
	return m
}

func newSlaveRec(ep int) *slaveRec {
	return &slaveRec{
		ep:       ep,
		perBlock: make(map[grid.BlockID]int),
		loaded:   make(map[grid.BlockID]bool),
	}
}

// find returns the group position of the slave at endpoint ep, or the
// position where it would be inserted, and whether it is present.
func (m *master) find(ep int) (int, bool) {
	return slices.BinarySearchFunc(m.group, ep, func(s *slaveRec, ep int) int { return s.ep - ep })
}

// coordEP returns the current completion coordinator's endpoint: always
// master 0 without faults; under a fault plan the lowest live master
// endpoint, re-derived by the recovery layer after each death.
func (m *master) coordEP() int {
	if m.r.faultsOn {
		return m.r.coordEP
	}
	return 0
}

// isCoord reports whether this master aggregates global completion.
func (m *master) isCoord() bool { return m.index == m.coordEP() }

// releaseDue moves every future seed whose release time has arrived
// into the assignable pool, reporting whether any moved.
func (m *master) releaseDue() bool {
	now := m.w.proc.Now()
	moved := false
	for len(m.future) > 0 && m.future[0].release <= now {
		rec := m.future[0]
		m.future = m.future[1:]
		if tr := m.r.tr; tr != nil {
			tr.Mark(m.w.end.Index(), obs.MarkRelease, now, int64(rec.id), 0)
		}
		m.pool[rec.block] = append(m.pool[rec.block], rec)
		m.poolCount++
		moved = true
	}
	return moved
}

func (m *master) run() {
	defer func() { m.w.stats.EndTime = m.w.proc.Now() }()

	if m.resumed {
		// Failover: the flock already holds work and will report in via
		// the statuses their msgRemaster triggers. Fold in any salvaged
		// seeds whose release already passed, then recheck the ledger —
		// the death may have eaten the last completion trigger.
		m.releaseDue()
		m.applyRules(false)
		// A candidate promoted with an empty flock cannot integrate its
		// salvage; hand it to a group that can.
		m.shedIfSlaveless()
		if m.isCoord() {
			m.onCompleted(0)
			if m.done {
				return
			}
		}
	} else {
		// Initial allocation: every slave receives N seeds through the
		// Assign-unloaded rule.
		for _, s := range m.group {
			m.assignSeeds(s, grid.NoBlock)
		}
		if m.index == 0 && m.totalSeeds == 0 {
			m.terminate()
			return
		}
	}

	for !m.done {
		if m.r.failed() {
			return
		}
		// Fold overdue scheduled seeds into the pool first — message
		// traffic can carry the clock past a release while we were
		// handling it — and supply any slaves already flagged needy.
		if m.releaseDue() {
			m.applyRules(false)
		}
		var env comm.Envelope
		if len(m.future) > 0 {
			// Wait for slave traffic, but no longer than the next
			// scheduled release.
			var got bool
			env, got = m.w.stallForRelease(m.future[0].release)
			if !got {
				continue // loop top releases and applies
			}
		} else {
			env = m.w.end.Recv()
		}
		switch msg := env.Payload.(type) {
		case msgStatus:
			m.onStatus(msg)
		case msgDone: // master→master completion forwarding
			m.onCompleted(msg.count)
		case msgSeedRequest:
			m.onSeedRequest(msg.from)
		case msgSeedShare:
			// An empty share means the peer had no surplus; keep
			// requestedSeed set so we do not ping-pong requests — the
			// next slave status re-arms the request path.
			if len(msg.recs) > 0 {
				m.requestedSeed = false
				for _, rec := range msg.recs {
					m.pool[rec.block] = append(m.pool[rec.block], rec)
					m.poolCount++
				}
			}
			m.applyRules(false)
			m.shedIfSlaveless()
		case msgStreamlines:
			m.onMigrated(msg)
		case msgSlaveDead:
			m.onSlaveDead(msg.ep)
		case msgAdoptPool:
			m.addRecs(msg.recs, msg.fresh)
		case msgAllDone:
			m.terminate()
		}
	}
}

// terminate shuts down this master's slaves and exits.
func (m *master) terminate() {
	for _, s := range m.group {
		m.w.end.Send(s.ep, msgTerminate{})
	}
	m.done = true
}

// onCompleted aggregates global completion counts on the coordinator.
// Under a fault plan the run's durable ledger is authoritative — a death
// can eat in-flight deltas, but a completion lands in the ledger before
// its trigger is sent, so rereading the total never undercounts.
func (m *master) onCompleted(count int) {
	if m.r.faultsOn {
		if !m.isCoord() {
			return
		}
		m.totalCompleted = m.r.completedTotal
		if m.totalCompleted >= len(m.r.prob.Seeds) {
			for _, ep := range m.r.masterEPs {
				if ep != m.index && m.r.running(ep) {
					m.w.end.Send(ep, msgAllDone{})
				}
			}
			m.terminate()
		}
		return
	}
	m.totalCompleted += count
	if m.totalCompleted >= m.totalSeeds {
		// Tell the other masters; each shuts down its own slaves.
		for peer := 0; peer < m.nm; peer++ {
			if peer != m.index {
				m.w.end.Send(peer, msgAllDone{})
			}
		}
		m.terminate()
	}
}

func (m *master) onStatus(st msgStatus) {
	i, ok := m.find(st.slave)
	if !ok {
		// A remastered slave's first status can arrive before this
		// (promoted) master modeled it; adopt live reporters, ignore
		// stale statuses from the dead.
		if !m.r.faultsOn || !m.r.running(st.slave) {
			return
		}
		m.group = slices.Insert(m.group, i, newSlaveRec(st.slave))
	}
	rec := m.group[i]
	rec.active = st.active
	rec.perBlock = st.perBlock
	rec.loaded = make(map[grid.BlockID]bool, len(st.loaded))
	for _, b := range st.loaded {
		rec.loaded[b] = true
	}
	rec.needsWork = st.needsWork
	rec.hintOutstanding = false

	if st.completedDelta > 0 {
		if m.isCoord() {
			m.onCompleted(st.completedDelta)
			if m.done {
				return
			}
		} else {
			m.w.end.Send(m.coordEP(), msgDone{count: st.completedDelta})
		}
	}
	// A fresh status re-arms master-to-master seed requests.
	m.requestedSeed = false
	m.applyRules(true)
}

// applyRules walks the paper's 7-step decision sequence for every slave
// currently needing work. allowSeedRequest gates master-to-master seed
// requests so an empty-handed reply cannot immediately trigger another
// request (which would livelock two idle masters in a message loop).
func (m *master) applyRules(allowSeedRequest bool) {
	assignedAny := false
	for _, s := range m.group {
		if !s.needsWork {
			continue
		}
		if m.applyRulesFor(s) {
			s.needsWork = false
			assignedAny = true
		}
	}
	// Group ran dry: ask a peer master for spare seeds. Under a fault
	// plan the peer set is the live master endpoints (promoted masters
	// included, dead ones excluded); without faults it is the original
	// ring, drawn with the original rng sequence.
	if allowSeedRequest && !assignedAny && m.poolCount == 0 && !m.requestedSeed && m.anyNeedsWork() {
		if m.r.faultsOn {
			var peers []int
			for _, ep := range m.r.masterEPs {
				if ep != m.index && m.r.running(ep) {
					peers = append(peers, ep)
				}
			}
			if len(peers) > 0 {
				peer := peers[m.rng.Intn(len(peers))]
				m.w.end.Send(peer, msgSeedRequest{from: m.index})
				m.requestedSeed = true
			}
		} else if m.nm > 1 {
			peer := (m.index + 1 + m.rng.Intn(m.nm-1)) % m.nm
			m.w.end.Send(peer, msgSeedRequest{from: m.index})
			m.requestedSeed = true
		}
	}
}

// addRecs folds adopted seed records into the pool, respecting each
// record's release time against the current clock, then supplies needy
// slaves. fresh marks records orphaned by a death (counted as adopted)
// as opposed to a bookkeeping transfer from a slaveless peer.
func (m *master) addRecs(recs []seedRec, fresh bool) {
	now := m.w.proc.Now()
	for _, rec := range recs {
		if rec.release > now {
			m.future = append(m.future, rec)
			continue
		}
		m.pool[rec.block] = append(m.pool[rec.block], rec)
		m.poolCount++
	}
	sort.Slice(m.future, func(i, j int) bool {
		if m.future[i].release != m.future[j].release {
			return m.future[i].release < m.future[j].release
		}
		return m.future[i].id < m.future[j].id
	})
	if fresh {
		m.w.stats.SeedsAdopted += int64(len(recs))
		if tr := m.r.tr; tr != nil && len(recs) > 0 {
			tr.Mark(m.w.end.Index(), obs.MarkAdopt, m.w.proc.Now(), int64(len(recs)), 0)
		}
	}
	m.applyRules(false)
	m.shedIfSlaveless()
}

// onMigrated rewinds streamlines that arrived at this endpoint while its
// promotion was in flight (a peer's offload aimed at the slave it used
// to be) and pools them as restartable seeds.
func (m *master) onMigrated(msg msgStreamlines) {
	recs := make([]seedRec, 0, len(msg.sls))
	for _, sl := range msg.sls {
		recs = append(recs, m.r.restartRec(sl))
	}
	sortRecs(recs)
	m.addRecs(recs, false)
}

// onSlaveDead drops a dead slave from the model; its streamlines come
// back separately as a msgAdoptPool from the recovery layer.
func (m *master) onSlaveDead(ep int) {
	i, ok := m.find(ep)
	if !ok {
		return
	}
	m.group = slices.Delete(m.group, i, i+1)
	m.applyRules(false)
	m.shedIfSlaveless()
}

// shedIfSlaveless hands this master's remaining seeds to a peer that
// still has slaves to integrate them, once every slave of its own has
// died. With no other master left either, the run cannot finish.
func (m *master) shedIfSlaveless() {
	if !m.r.faultsOn || m.done || len(m.group) > 0 || (m.poolCount == 0 && len(m.future) == 0) {
		return
	}
	tgt := -1
	for _, ep := range m.r.masterEPs {
		if ep != m.index && m.r.running(ep) {
			tgt = ep
			break
		}
	}
	if tgt < 0 {
		m.r.fail(&faults.UnrecoverableError{
			Algorithm: string(HybridMS),
			Proc:      m.index,
			Time:      m.w.proc.Now(),
			Reason:    "every slave died; no surviving group can integrate the remaining streamlines",
		})
		return
	}
	recs := m.r.masterPoolRecs(m)
	m.pool = make(map[grid.BlockID][]seedRec)
	m.poolCount = 0
	m.future = nil
	m.r.deliverLocal(tgt, msgAdoptPool{recs: recs})
}

func (m *master) anyNeedsWork() bool {
	for _, s := range m.group {
		if s.needsWork {
			return true
		}
	}
	return false
}

// applyRulesFor runs steps 1–7 for slave s, returning true when s was
// supplied with work.
func (m *master) applyRulesFor(s *slaveRec) bool {
	hp := m.r.cfg.Hybrid

	// Step 1 (Send-force, housekeeping): S offloads streamlines stuck in
	// unloaded blocks to slaves that already have those blocks loaded.
	m.forceOffload(s, hp)

	// Step 2 (Load): S has more than NL streamlines piled in one unloaded
	// block — cheaper for S to load the block itself.
	if b, n := m.busiestUnloaded(s); n > hp.NL {
		m.instructLoad(s, b)
		return true
	}

	// Step 3 (Send-force toward S): blocks loaded by S may unlock
	// streamlines stranded on other slaves.
	if m.forceToward(s, hp) {
		return true
	}

	if m.poolCount > 0 {
		// Step 4 (Assign-loaded): seeds in a block S already has in
		// memory.
		m.blocks = sortedBlocks(m.blocks, s.loaded)
		for _, b := range m.blocks {
			if len(m.pool[b]) > 0 {
				m.assignSeedsFrom(s, b)
				return true
			}
		}
		// Step 5 (Assign-unloaded): any seeds at all.
		m.assignSeeds(s, grid.NoBlock)
		return true
	}

	// Step 6 (Load): load S's own most-populated block.
	if b, n := m.busiestUnloaded(s); n > 0 {
		m.instructLoad(s, b)
		return true
	}

	// Step 7 (Send-hint): ask the busiest slave to share work with S.
	// The hint names concrete blocks so the transfer is productive: we
	// prefer stealing from a block the busy slave has not loaded (it
	// cannot progress there anyway), falling back to splitting its
	// biggest loaded pile; S is told to load the block so the incoming
	// streamlines are immediately workable.
	if !s.hintOutstanding {
		if busy := m.busiestSlave(s.ep); busy != nil {
			b, n := m.busiestUnloaded(busy)
			if n == 0 {
				b, n = m.busiestAny(busy)
			}
			if n > 0 {
				if !s.loaded[b] {
					m.instructLoad(s, b)
				}
				m.w.end.Send(busy.ep, msgSendHint{to: s.ep, blocks: []grid.BlockID{b}})
				s.hintOutstanding = true
			}
		}
	}
	return false
}

// busiestAny returns s's block (loaded or not) with the most streamlines.
func (m *master) busiestAny(s *slaveRec) (grid.BlockID, int) {
	best := grid.NoBlock
	bestN := 0
	m.blocks = sortedBlocks(m.blocks, s.perBlock)
	for _, b := range m.blocks {
		if n := s.perBlock[b]; n > bestN {
			best, bestN = b, n
		}
	}
	return best, bestN
}

// forceOffload implements step 1: S sends streamlines in unloaded blocks
// to group members having those blocks loaded, subject to NO.
func (m *master) forceOffload(s *slaveRec, hp HybridParams) {
	m.blocks = sortedBlocks(m.blocks, s.perBlock)
	for _, b := range m.blocks {
		n := s.perBlock[b]
		if n <= 0 || s.loaded[b] {
			continue
		}
		for _, t := range m.group {
			if t == s || !t.loaded[b] {
				continue
			}
			if t.active+n > hp.NO {
				continue // "will not increase the load on S2 above NO"
			}
			m.w.end.Send(s.ep, msgSendForce{block: b, to: t.ep})
			t.active += n
			t.perBlock[b] += n
			s.active -= n
			delete(s.perBlock, b)
			break
		}
	}
}

// forceToward implements step 3: other slaves send S their streamlines in
// blocks S has loaded. Instructions go out slave by slave in group order,
// then by ascending block; S's loaded set does not change during the
// walk, so it is sorted once, when the first slave holding streamlines
// is reached, and probed against each such slave.
func (m *master) forceToward(s *slaveRec, hp HybridParams) bool {
	sorted, sent := false, false
	for _, t := range m.group {
		if t == s || len(t.perBlock) == 0 {
			continue
		}
		if !sorted {
			m.blocks = sortedBlocks(m.blocks, s.loaded)
			sorted = true
		}
		for _, b := range m.blocks {
			n := t.perBlock[b]
			if n <= 0 || t.loaded[b] {
				continue
			}
			if s.active+n > hp.NO {
				continue
			}
			m.w.end.Send(t.ep, msgSendForce{block: b, to: s.ep})
			s.active += n
			s.perBlock[b] += n
			t.active -= n
			delete(t.perBlock, b)
			sent = true
		}
	}
	return sent
}

// busiestUnloaded returns S's unloaded block holding the most
// streamlines.
func (m *master) busiestUnloaded(s *slaveRec) (grid.BlockID, int) {
	best := grid.NoBlock
	bestN := 0
	m.blocks = sortedBlocks(m.blocks, s.perBlock)
	for _, b := range m.blocks {
		n := s.perBlock[b]
		if s.loaded[b] || n == 0 {
			continue
		}
		if n > bestN {
			best, bestN = b, n
		}
	}
	return best, bestN
}

// busiestSlave returns the group's slave with the most streamlines,
// excluding ep; ties are broken randomly per the paper.
func (m *master) busiestSlave(excludeEP int) *slaveRec {
	bestN := 0
	var candidates []*slaveRec
	for _, s := range m.group {
		if s.ep == excludeEP || s.active == 0 {
			continue
		}
		switch {
		case s.active > bestN:
			bestN = s.active
			candidates = candidates[:0]
			candidates = append(candidates, s)
		case s.active == bestN:
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[m.rng.Intn(len(candidates))]
}

// instructLoad sends the Load rule and updates the model.
func (m *master) instructLoad(s *slaveRec, b grid.BlockID) {
	m.w.end.Send(s.ep, msgLoad{block: b})
	s.loaded[b] = true
}

// assignSeeds sends up to N seeds to s. With from == NoBlock it picks the
// pool's most-populated block (Assign-unloaded); otherwise it draws from
// that block (Assign-loaded).
func (m *master) assignSeeds(s *slaveRec, from grid.BlockID) {
	if m.poolCount == 0 {
		return
	}
	b := from
	if b == grid.NoBlock {
		bestN := 0
		m.blocks = sortedBlocks(m.blocks, m.pool)
		for _, blk := range m.blocks {
			if n := len(m.pool[blk]); n > bestN {
				b, bestN = blk, n
			}
		}
	}
	m.assignSeedsFrom(s, b)
}

// assignSeedsFrom sends up to N seeds from block b to s.
func (m *master) assignSeedsFrom(s *slaveRec, b grid.BlockID) {
	recs := m.pool[b]
	if len(recs) == 0 {
		return
	}
	n := m.r.cfg.Hybrid.N
	if n > len(recs) {
		n = len(recs)
	}
	batch := recs[:n]
	rest := recs[n:]
	if len(rest) == 0 {
		delete(m.pool, b)
	} else {
		m.pool[b] = rest
	}
	m.poolCount -= n
	m.w.sendingRecs = batch
	m.w.end.Send(s.ep, msgAssign{recs: batch, block: b})
	m.w.sendingRecs = nil
	s.active += n
	s.perBlock[b] += n
	s.loaded[b] = true
}

// onSeedRequest shares up to W·N seeds with a starving peer master.
func (m *master) onSeedRequest(from int) {
	share := []seedRec{}
	want := m.r.cfg.Hybrid.W * m.r.cfg.Hybrid.N
	if m.poolCount > 2*want { // only share surplus
		m.blocks = sortedBlocks(m.blocks, m.pool)
		for _, b := range m.blocks {
			if len(share) >= want {
				break
			}
			take := want - len(share)
			recs := m.pool[b]
			if take > len(recs) {
				take = len(recs)
			}
			share = append(share, recs[:take]...)
			if take == len(recs) {
				delete(m.pool, b)
			} else {
				m.pool[b] = recs[take:]
			}
			m.poolCount -= take
		}
	}
	m.w.sendingRecs = share
	m.w.end.Send(from, msgSeedShare{recs: share})
	m.w.sendingRecs = nil
}
