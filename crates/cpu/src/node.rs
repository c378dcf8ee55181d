//! The baseline core node: an out-of-order core model with its private L1,
//! implementing the three consistency baselines the paper compares BulkSC
//! against (§7.1):
//!
//! * **SC** — sequential consistency with the two classic optimizations of
//!   Gharachorloo et al.: hardware prefetching for reads (loads issue into
//!   the memory system as soon as they enter the window) and exclusive
//!   prefetching for writes (ownership is requested at fetch). Stores still
//!   *perform* strictly in order at the window head, and speculatively
//!   completed loads are revalidated R10000-style: an invalidation or
//!   displacement of the accessed line before retirement forces a re-issue.
//! * **RC** — release consistency with speculative execution across fences:
//!   loads retire as soon as they complete, stores retire into a store
//!   buffer that drains in order with overlapped exclusive prefetching, and
//!   fences impose no stall.
//! * **TSO** — total store order, the x86/SPARC middle ground: stores
//!   retire into the FIFO store buffer (so loads bypass older stores to
//!   other addresses), same-address loads forward from the newest buffered
//!   store, and fences and atomics drain the buffer before retiring. Loads
//!   keep R→R order via SC-style R10000 revalidation: an invalidation or
//!   displacement of a speculatively completed load's line forces a
//!   re-issue.
//! * **SC++** — the SC++ scheme of Gniady et al. modelled at epoch
//!   granularity: RC-like timing plus speculative-state tracking. The 2K-
//!   entry SHiQ is approximated by fixed-size epochs with program
//!   checkpoints; an external invalidation (or displacement) that hits an
//!   epoch's read/write set rolls the core back to that epoch's checkpoint
//!   and re-executes — the paper's "wasted work" cost.
//!
//! One node = one core + L1 + its protocol endpoint on the fabric.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use bulksc_mem::{CacheConfig, InsertOutcome, LineState, SetAssocCache};
use bulksc_net::{Cycle, Envelope, Fabric, Message, NodeId};
use bulksc_sig::{Addr, LineAddr, LineData};
use bulksc_trace::{Event, TraceHandle};
use bulksc_workloads::{Instr, ThreadProgram};

use crate::config::CoreConfig;
use crate::misses::{MissStats, MissTable};
use crate::wake::Wake;
use crate::window::{InstrWindow, SlotId, SlotState, WindowForward};
use bulksc_mem::ValueStore;

/// Which baseline consistency model this node enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineModel {
    /// Sequential consistency with read/exclusive prefetching.
    Sc,
    /// Release consistency with speculation across fences.
    Rc,
    /// SC++ (epoch-granularity model of the SHiQ).
    Scpp,
    /// Total store order: FIFO store buffer with forwarding, loads in
    /// order, fences/atomics drain.
    Tso,
}

/// Dynamic instructions per SC++ epoch (approximates the 2K-entry SHiQ).
const EPOCH_INSTRS: u64 = 1000;

/// Event counters for one core.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Dynamic instructions retired (committed).
    pub retired: u64,
    /// Dynamic instructions discarded by squashes (SC++).
    pub squashed_instrs: u64,
    /// Epoch squashes (SC++).
    pub squashes: u64,
    /// Speculative loads re-issued after invalidation/displacement (SC).
    pub load_reissues: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Cycle at which this core finished its program, if it has.
    pub finished_at: Option<Cycle>,
}

#[derive(Clone, Debug)]
struct SbEntry {
    addr: Addr,
    value: u64,
    epoch: u64,
    /// Program-order index assigned at retire (value tracing; the store's
    /// event is emitted later, when the buffer drains it to memory).
    po: u64,
    /// Cycle the store retired into the buffer (value tracing).
    retired_at: Cycle,
}

struct Epoch {
    id: u64,
    checkpoint: Box<dyn ThreadProgram>,
    /// Pending feed/stash at checkpoint time (architectural state).
    checkpoint_feed: Option<u64>,
    checkpoint_stash: Option<Instr>,
    reads: HashSet<LineAddr>,
    writes: HashSet<LineAddr>,
    /// Dynamic instructions retired within this epoch.
    retired: u64,
}

/// A baseline (SC / RC / SC++) core with its private L1.
pub struct BaselineNode {
    core: u32,
    model: BaselineModel,
    cfg: CoreConfig,

    program: Box<dyn ThreadProgram>,
    program_done: bool,
    /// Retire-count budget: the node stops fetching once reached.
    budget: u64,

    window: InstrWindow,
    /// Slot whose result the program is waiting on (fetch stalled).
    awaiting: Option<SlotId>,
    /// Value to feed the program on the next fetch.
    feed: Option<u64>,
    /// Instruction fetched from the program but not yet admitted into the
    /// window (the window was full).
    stash: Option<Instr>,
    /// Epoch id assigned to newly fetched slots.
    slot_epochs: HashMap<SlotId, u64>,

    l1: SetAssocCache,
    misses: MissTable,
    completions: BinaryHeap<Reverse<(Cycle, SlotId)>>,

    store_buffer: VecDeque<SbEntry>,

    /// SC: cycle the last memory operation retired (performs serialize).
    last_mem_retire: Cycle,

    /// Speculative epochs (SC++ only; for SC/RC it stays empty).
    epochs: VecDeque<Epoch>,
    current_epoch: u64,
    epoch_fetched: u64,
    /// Consecutive epoch squashes: shrinks the epoch so the core can
    /// reach a quiescent (safe) point under contention.
    epoch_squash_streak: u32,

    stats: CoreStats,
    trace: TraceHandle,
    /// Program-order index of the next value-traced access (only advanced
    /// while value tracing is active).
    po_next: u64,
}

impl BaselineNode {
    /// A core node for `core`, running `program` under `model`, stopping
    /// after `budget` retired dynamic instructions (or program end). Every
    /// line is homed at the single directory module `Dir(0)`.
    pub fn new(
        core: u32,
        model: BaselineModel,
        cfg: CoreConfig,
        l1: CacheConfig,
        program: Box<dyn ThreadProgram>,
        budget: u64,
    ) -> Self {
        let mut node = BaselineNode {
            core,
            model,
            cfg,
            program,
            program_done: false,
            budget,
            window: InstrWindow::new(cfg.window_size),
            awaiting: None,
            feed: None,
            stash: None,
            slot_epochs: HashMap::new(),
            l1: SetAssocCache::new(l1),
            misses: MissTable::new(&cfg),
            completions: BinaryHeap::new(),
            store_buffer: VecDeque::new(),
            last_mem_retire: 0,
            epochs: VecDeque::new(),
            current_epoch: 0,
            epoch_fetched: 0,
            epoch_squash_streak: 0,
            stats: CoreStats::default(),
            trace: TraceHandle::off(),
            po_next: 0,
        };
        if model == BaselineModel::Scpp {
            node.open_epoch();
        }
        node
    }

    /// This node's network id.
    pub fn id(&self) -> NodeId {
        NodeId::Core(self.core)
    }

    /// Route this core's value-trace events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// True when retired accesses should be value-traced. SC++ is
    /// excluded: its epoch rollback retracts already-retired work, so a
    /// committed-value trace cannot be emitted at retire time.
    fn value_tracing(&self) -> bool {
        self.model != BaselineModel::Scpp && self.trace.enabled()
    }

    fn next_po(&mut self) -> u64 {
        let po = self.po_next;
        self.po_next += 1;
        po
    }

    /// The consistency model this node runs.
    pub fn model(&self) -> BaselineModel {
        self.model
    }

    /// Event counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 miss counters.
    pub fn miss_stats(&self) -> &MissStats {
        self.misses.stats()
    }

    /// The thread program (for reading observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.program.as_ref()
    }

    /// True once the program has ended and all its effects have drained.
    pub fn finished(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    fn open_epoch(&mut self) {
        self.current_epoch += 1;
        self.epoch_fetched = 0;
        self.epochs.push_back(Epoch {
            id: self.current_epoch,
            checkpoint: self.program.clone_box(),
            checkpoint_feed: self.feed,
            checkpoint_stash: self.stash,
            reads: HashSet::new(),
            writes: HashSet::new(),
            retired: 0,
        });
    }

    // ------------------------------------------------------------------
    // Per-cycle work.
    // ------------------------------------------------------------------

    /// Advance this core by one cycle. Returns the next cycle it must
    /// tick if no message arrives (see [`Wake`]).
    pub fn tick(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) -> Cycle {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        let mut wake = Wake::new(now);
        // Protocol obligations outlive the program: a finished core must
        // still answer fetches deferred behind its last fills.
        for (line, src, for_excl) in self.misses.due_fetches(&mut wake) {
            self.surrender_line(now, line, src, for_excl, fab);
        }
        if self.finished() {
            return wake.at();
        }
        self.pop_completions(now, values, &mut wake);
        self.retire(now, values, &mut wake);
        self.drain_store_buffer(now, values, &mut wake);
        self.issue(now, &mut wake);
        self.send_misses(now, fab, &mut wake);
        self.fetch(&mut wake);
        self.check_finished(now, &mut wake);
        wake.at()
    }

    fn pop_completions(&mut self, now: Cycle, values: &mut ValueStore, wake: &mut Wake) {
        while let Some(&Reverse((t, slot))) = self.completions.peek() {
            if !wake.due(t) {
                break;
            }
            wake.progress();
            self.completions.pop();
            self.complete_load_slot(now, slot, values, None);
        }
    }

    /// Transition a load slot to Done, capturing its value with
    /// store-to-load forwarding from older in-flight stores. Without a
    /// forwarding store the load reads `data`, the snapshot its data
    /// response carried (the value the directory served, not the value at
    /// arrival time), or committed memory if there is none.
    fn complete_load_slot(
        &mut self,
        now: Cycle,
        slot: SlotId,
        values: &ValueStore,
        data: Option<&LineData>,
    ) {
        let Some(s) = self.window.get_mut(slot) else {
            return;
        };
        if s.state != SlotState::Issued {
            return;
        }
        let Instr::Load { addr, .. } = s.instr else {
            s.state = SlotState::Done;
            return;
        };
        let v = match self.forwarded_value(slot, addr) {
            WindowForward::Value(v) => v,
            WindowForward::Unknown => {
                // An older RMW to the same word has not performed yet:
                // its result is unknown, so retry shortly.
                self.completions.push(Reverse((now + 1, slot)));
                return;
            }
            WindowForward::None => {
                data.map_or_else(|| values.read(addr), |d| d[addr.line_offset() as usize])
            }
        };
        let s = self.window.get_mut(slot).expect("slot exists");
        s.state = SlotState::Done;
        s.value = Some(v);
    }

    /// Store-to-load forwarding for a load at `slot`: the youngest older
    /// same-word store in the window, else the youngest store-buffer
    /// entry. [`WindowForward::None`] means the load reads memory.
    fn forwarded_value(&self, slot: SlotId, addr: Addr) -> WindowForward {
        match self.window.forward(slot, addr) {
            WindowForward::None => self
                .store_buffer
                .iter()
                .rev()
                .find(|e| e.addr == addr)
                .map_or(WindowForward::None, |e| WindowForward::Value(e.value)),
            fwd => fwd,
        }
    }

    fn retire(&mut self, now: Cycle, values: &mut ValueStore, wake: &mut Wake) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(head) = self.window.oldest() else {
                break;
            };
            let head_id = head.id();
            let head_instr = head.instr;
            let head_state = head.state;
            match head_instr {
                Instr::Compute(_) => {
                    let n = budget.min(self.window.oldest().expect("head").remaining());
                    self.window.drain_oldest_compute(n);
                    budget -= n;
                    self.note_retired(n as u64);
                    if self.window.oldest().expect("head").remaining() == 0 {
                        self.finish_slot(head_id);
                    }
                }
                Instr::Load { addr, consume } => {
                    if head_state != SlotState::Done || !self.may_perform_mem(wake) {
                        break;
                    }
                    let v = self.window.oldest().expect("head").value;
                    if self.value_tracing() {
                        let core = self.core;
                        let po = self.next_po();
                        let value = v.expect("completed load carries its value");
                        self.trace.emit(now, || Event::ValLoad {
                            core,
                            seq: 0,
                            po,
                            addr: addr.0,
                            value,
                            retired_at: now,
                        });
                    }
                    if consume {
                        self.feed = v;
                        self.awaiting = None;
                    }
                    self.record_epoch_access(addr.line(), false);
                    self.note_mem_retire(now);
                    self.finish_slot(head_id);
                    self.note_retired(1);
                    budget -= 1;
                }
                Instr::Store { addr, value } => {
                    match self.model {
                        BaselineModel::Sc => {
                            // Perform strictly at the head: needs ownership.
                            if !self.may_perform_mem(wake)
                                || !self.try_perform_store(now, addr, value, values, wake)
                            {
                                break;
                            }
                            if self.value_tracing() {
                                let core = self.core;
                                let po = self.next_po();
                                self.trace.emit(now, || Event::ValStore {
                                    core,
                                    seq: 0,
                                    po,
                                    addr: addr.0,
                                    value,
                                    retired_at: now,
                                });
                            }
                            self.note_mem_retire(now);
                            self.finish_slot(head_id);
                            self.note_retired(1);
                            budget -= 1;
                        }
                        BaselineModel::Rc | BaselineModel::Scpp | BaselineModel::Tso => {
                            if self.store_buffer.len() >= self.cfg.store_buffer as usize {
                                break;
                            }
                            let po = if self.value_tracing() {
                                self.next_po()
                            } else {
                                0
                            };
                            self.store_buffer.push_back(SbEntry {
                                addr,
                                value,
                                epoch: self.current_epoch,
                                po,
                                retired_at: now,
                            });
                            self.record_epoch_access(addr.line(), true);
                            self.finish_slot(head_id);
                            self.note_retired(1);
                            budget -= 1;
                        }
                    }
                }
                Instr::Rmw { addr, op } => {
                    // Atomics perform at the head with an empty store
                    // buffer (they are ordering points even under RC).
                    if !self.store_buffer.is_empty() {
                        break;
                    }
                    if !self.line_owned(addr.line()) {
                        if self.misses.want(now, addr.line(), true, None) {
                            wake.progress();
                        }
                        break;
                    }
                    let old = values.read(addr);
                    let new = op.apply(old);
                    values.write(addr, new);
                    self.l1.set_state(addr.line(), LineState::Dirty);
                    if self.value_tracing() {
                        let core = self.core;
                        let po = self.next_po();
                        self.trace.emit(now, || Event::ValRmw {
                            core,
                            seq: 0,
                            po,
                            addr: addr.0,
                            old,
                            new,
                            retired_at: now,
                        });
                    }
                    self.record_epoch_access(addr.line(), true);
                    self.feed = Some(old);
                    self.awaiting = None;
                    self.finish_slot(head_id);
                    self.note_retired(1);
                    budget -= 1;
                }
                Instr::Fence => {
                    // SC is already strict; RC/SC++ speculate across
                    // fences; TSO's mfence retires only once the store
                    // buffer has drained.
                    if self.model == BaselineModel::Tso && !self.store_buffer.is_empty() {
                        break;
                    }
                    self.finish_slot(head_id);
                    self.note_retired(1);
                    budget -= 1;
                }
                Instr::Io => {
                    // Uncached: wait until the core is quiescent.
                    if !self.store_buffer.is_empty() || !self.misses.is_empty() {
                        break;
                    }
                    self.finish_slot(head_id);
                    self.note_retired(1);
                    budget -= 1;
                }
            }
            wake.progress();
        }
    }

    fn finish_slot(&mut self, id: SlotId) {
        let slot = self.window.pop_oldest();
        debug_assert_eq!(slot.id(), id);
        self.slot_epochs.remove(&id);
    }

    fn note_retired(&mut self, n: u64) {
        self.stats.retired += n;
        if let Some(e) = self.epochs.back_mut() {
            e.retired += n;
        }
        if self.model == BaselineModel::Scpp && self.epochs.len() > 1 {
            // An epoch is safe once all its own work is architectural:
            // every slot retired (in-order retirement ⇒ no slot of it or
            // anything older remains) and all its stores drained. Keeping
            // safety tied to the store buffer, not to full quiescence,
            // matches the SHiQ's bounded speculation window.
            let oldest_speculative_store = self
                .store_buffer
                .front()
                .map(|e| e.epoch)
                .unwrap_or(u64::MAX);
            let oldest_in_window = self.slot_epochs.values().min().copied().unwrap_or(u64::MAX);
            let mut popped = false;
            while self.epochs.len() > 1 {
                let front_id = self.epochs.front().expect("non-empty").id;
                if front_id < oldest_speculative_store && front_id < oldest_in_window {
                    self.epochs.pop_front();
                    popped = true;
                } else {
                    break;
                }
            }
            if popped {
                self.epoch_squash_streak = 0;
            }
        }
    }

    fn record_epoch_access(&mut self, line: LineAddr, write: bool) {
        if self.model != BaselineModel::Scpp {
            return;
        }
        if let Some(e) = self.epochs.back_mut() {
            if write {
                e.writes.insert(line);
            } else {
                e.reads.insert(line);
            }
        }
    }

    /// Under SC, memory operations perform one at a time: the next may
    /// only perform `l1_latency` after the previous (requirement (i) of
    /// the straightforward SC implementation; the paper's baseline lacks
    /// R10000-style speculative reordering).
    fn may_perform_mem(&self, wake: &mut Wake) -> bool {
        self.model != BaselineModel::Sc || wake.due(self.last_mem_retire + self.cfg.l1_latency)
    }

    fn note_mem_retire(&mut self, now: Cycle) {
        if self.model == BaselineModel::Sc {
            self.last_mem_retire = now;
        }
    }

    /// SC store perform: apply the value if the line is owned, otherwise
    /// make sure ownership is on its way.
    fn try_perform_store(
        &mut self,
        now: Cycle,
        addr: Addr,
        value: u64,
        values: &mut ValueStore,
        wake: &mut Wake,
    ) -> bool {
        if self.line_owned(addr.line()) {
            values.write(addr, value);
            self.l1.set_state(addr.line(), LineState::Dirty);
            return true;
        }
        if self.misses.want(now, addr.line(), true, None) {
            wake.progress();
        }
        false
    }

    fn line_owned(&self, line: LineAddr) -> bool {
        matches!(
            self.l1.state(line),
            Some(LineState::Exclusive) | Some(LineState::Dirty)
        )
    }

    fn drain_store_buffer(&mut self, now: Cycle, values: &mut ValueStore, wake: &mut Wake) {
        // Head drains when owned; deeper entries get exclusive prefetches.
        while let Some(head) = self.store_buffer.front().cloned() {
            if self.line_owned(head.addr.line()) {
                values.write(head.addr, head.value);
                self.l1.set_state(head.addr.line(), LineState::Dirty);
                if self.value_tracing() {
                    let core = self.core;
                    self.trace.emit(now, || Event::ValStore {
                        core,
                        seq: 0,
                        po: head.po,
                        addr: head.addr.0,
                        value: head.value,
                        retired_at: head.retired_at,
                    });
                }
                self.store_buffer.pop_front();
                wake.progress();
            } else {
                if self.misses.want(now, head.addr.line(), true, None) {
                    wake.progress();
                }
                break;
            }
        }
        // Exclusive prefetch for the next few buffered stores.
        let prefetch: Vec<LineAddr> = self
            .store_buffer
            .iter()
            .skip(1)
            .take(4)
            .map(|e| e.addr.line())
            .collect();
        for line in prefetch {
            if !self.line_owned(line) && self.misses.want(now, line, true, None) {
                wake.progress();
            }
        }
    }

    fn issue(&mut self, now: Cycle, wake: &mut Wake) {
        // RC/SC++: loads issue as soon as they are in the window, stores
        // prefetch ownership immediately. SC: requirement (i) permits only
        // the bounded prefetch lookahead — memory ops beyond the first
        // `sc_prefetch_depth` in program order stay unissued, which is
        // what bounds SC's memory-level parallelism below RC's.
        let depth_limit = match self.model {
            BaselineModel::Sc => self.cfg.sc_prefetch_depth as usize,
            _ => usize::MAX,
        };
        let mut to_start: Vec<(SlotId, Instr)> = Vec::new();
        let mut mem_seen = 0usize;
        let mut depth = 0u64;
        for slot in self.window.iter() {
            depth += slot.remaining().max(1) as u64;
            if depth > self.cfg.issue_window as u64 {
                break;
            }
            let is_mem = matches!(
                slot.instr,
                Instr::Load { .. } | Instr::Store { .. } | Instr::Rmw { .. }
            );
            if !is_mem {
                continue;
            }
            if mem_seen >= depth_limit {
                break;
            }
            mem_seen += 1;
            if slot.state == SlotState::Waiting {
                to_start.push((slot.id(), slot.instr));
            }
        }
        if !to_start.is_empty() {
            wake.progress();
        }
        for (id, instr) in to_start {
            match instr {
                Instr::Load { addr, .. } => {
                    if self.l1.contains(addr.line()) {
                        self.stats.l1_hits += 1;
                        self.l1.touch(addr.line());
                        self.completions
                            .push(Reverse((now + self.cfg.l1_latency, id)));
                        if let Some(s) = self.window.get_mut(id) {
                            s.state = SlotState::Issued;
                        }
                    } else {
                        self.misses.want(now, addr.line(), false, Some(id));
                        if let Some(s) = self.window.get_mut(id) {
                            s.state = SlotState::Issued;
                        }
                    }
                }
                Instr::Store { addr, .. } | Instr::Rmw { addr, .. } => {
                    // Exclusive prefetch; the op itself performs at retire.
                    if !self.line_owned(addr.line()) {
                        self.misses.want(now, addr.line(), true, None);
                    }
                    if let Some(s) = self.window.get_mut(id) {
                        s.state = SlotState::Done; // nothing more to do pre-retire
                    }
                }
                _ => {}
            }
        }
    }

    /// Send the requests the miss table has room for: ownership as an
    /// `Upgrade` of a shared copy or a `ReadExcl`, else a `ReadShared`,
    /// all to the single directory.
    fn send_misses(&mut self, now: Cycle, fab: &mut Fabric, wake: &mut Wake) {
        for (line, excl) in self.misses.send(now, wake) {
            let msg = if !excl {
                Message::ReadShared { line }
            } else if self.l1.state(line) == Some(LineState::Shared) {
                Message::Upgrade { line }
            } else {
                Message::ReadExcl { line }
            };
            fab.send(now, self.id(), NodeId::Dir(0), msg);
        }
    }

    fn fetch(&mut self, wake: &mut Wake) {
        if self.awaiting.is_some() {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.program_done && self.stash.is_none() {
                return;
            }
            if self.stats.retired + self.window.occupancy() >= self.budget {
                // Budget reached: stop fetching; in-flight work drains.
                if !self.program_done {
                    self.program_done = true;
                    wake.progress();
                }
                return;
            }
            // SC++ epoch boundary at fetch time. Consecutive squashes
            // shrink the epoch so some work can become safe (quiesce)
            // before the next conflicting invalidation lands.
            if self.model == BaselineModel::Scpp && self.epoch_fetched >= self.epoch_len() {
                self.open_epoch();
                wake.progress();
            }
            // Fetching consumes the program's next instruction before we
            // know whether the window has room, so a rejected instruction
            // is stashed and retried first on the next fetch.
            let instr = match self.stash.take() {
                Some(i) => i,
                None => {
                    wake.progress();
                    let feed = self.feed.take();
                    match self.program.next(feed) {
                        Some(i) => i,
                        None => {
                            self.program_done = true;
                            return;
                        }
                    }
                }
            };
            match self.window.push(instr) {
                Some(id) => {
                    wake.progress();
                    self.epoch_fetched += instr.dynamic_count();
                    self.slot_epochs.insert(id, self.current_epoch);
                    if instr.consumes_value() {
                        self.awaiting = Some(id);
                        return;
                    }
                }
                None => {
                    self.stash = Some(instr);
                    return;
                }
            }
        }
    }

    fn check_finished(&mut self, now: Cycle, wake: &mut Wake) {
        if self.stats.finished_at.is_none()
            && self.program_done
            && self.stash.is_none()
            && self.window.is_empty()
            && self.store_buffer.is_empty()
        {
            self.stats.finished_at = Some(now);
            wake.progress();
        }
    }

    /// One-line diagnostic snapshot (for debugging stuck systems).
    pub fn debug_state(&self) -> String {
        let head = self
            .window
            .oldest()
            .map(|s| format!("{:?}/{:?}", s.instr, s.state));
        format!(
            "core{} head={head:?} win={} sb={} {} awaiting={:?} done={} finished={:?}",
            self.core,
            self.window.len(),
            self.store_buffer.len(),
            self.misses,
            self.awaiting,
            self.program_done,
            self.stats.finished_at,
        )
    }

    // ------------------------------------------------------------------
    // Message handling.
    // ------------------------------------------------------------------

    /// Process one incoming message.
    ///
    /// # Panics
    ///
    /// Panics on BulkSC-only messages (this is a baseline node).
    pub fn handle(&mut self, now: Cycle, env: Envelope, fab: &mut Fabric, values: &mut ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        match env.msg {
            Message::Data {
                line,
                exclusive,
                data,
            } => self.fill(now, line, exclusive, data, fab, values),
            Message::UpgradeAck { line } => {
                self.l1.set_state(line, LineState::Exclusive);
                // Loads merged into the upgraded miss read the (still
                // valid, now exclusive) local copy.
                for slot in self.misses.fill(now, line) {
                    self.complete_load_slot(now, slot, values, None);
                }
            }
            Message::Inv { line } | Message::DisplaceSig { line, .. } => {
                let state = self.l1.invalidate(line);
                let dirty = state == Some(LineState::Dirty);
                self.misses.mark_invalidated(line);
                self.on_lost_line(line);
                fab.send(now, self.id(), env.src, Message::InvAck { line, dirty });
            }
            Message::Fetch { line, for_excl } => {
                if !self.misses.defer_fetch(line, env.src, for_excl) {
                    self.surrender_line(now, line, env.src, for_excl, fab);
                }
            }
            Message::Nack { line } => {
                if let Some((src, for_excl)) = self.misses.nack(now, line) {
                    self.surrender_line(now, line, src, for_excl, fab);
                }
            }
            other => panic!("baseline core received unexpected message {other:?}"),
        }
    }

    /// A data response arrived: fill the L1 and wake the waiting slots.
    fn fill(
        &mut self,
        now: Cycle,
        line: LineAddr,
        exclusive: bool,
        data: LineData,
        fab: &mut Fabric,
        values: &mut ValueStore,
    ) {
        // A fill whose line was invalidated while the response was in
        // flight is stale by coherence order: do not install it, and
        // replay (SC/SC++) or complete (RC: the load performed at the
        // directory's serve point, which precedes the invalidation).
        if let Some(stale) = self.misses.stale_fill(line) {
            if let Some((src, for_excl)) = stale.fetch {
                self.surrender_line(now, line, src, for_excl, fab);
            }
            for slot in stale.waiting_loads {
                match self.model {
                    BaselineModel::Rc => {
                        self.complete_load_slot(now, slot, values, Some(&data));
                    }
                    BaselineModel::Sc | BaselineModel::Scpp | BaselineModel::Tso => {
                        if let Some(s) = self.window.get_mut(slot) {
                            if s.state == SlotState::Issued {
                                s.state = SlotState::Waiting;
                                s.value = None;
                                self.stats.load_reissues += 1;
                            }
                        }
                    }
                }
            }
            // The fill was not installed and the miss is gone, but a
            // Store/Rmw that prefetched ownership (or a buffered store)
            // still needs the line at retire/drain and has no other
            // wake-up path — without a fresh request the node can sleep
            // forever on a Done head it cannot perform. Re-request; the
            // directory serializes the retry.
            let still_needed = stale.excl
                && (self.window.iter().any(|s| {
                    matches!(
                        s.instr,
                        Instr::Store { addr, .. } | Instr::Rmw { addr, .. }
                            if addr.line() == line
                    )
                }) || self.store_buffer.iter().any(|e| e.addr.line() == line));
            if still_needed {
                self.misses.want(now, line, true, None);
            }
            return;
        }
        let state = if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        match self.l1.insert(line, state, |_| false) {
            InsertOutcome::Evicted {
                line: victim,
                state: LineState::Dirty,
            } => {
                self.on_lost_line(victim);
                fab.send(
                    now,
                    self.id(),
                    NodeId::Dir(0),
                    Message::Writeback {
                        line: victim,
                        keep_shared: false,
                    },
                );
            }
            InsertOutcome::Evicted { line: victim, .. } => {
                // Clean displacement: silent, but speculative loads on the
                // victim must revalidate (SC) / squash (SC++).
                self.on_lost_line(victim);
            }
            _ => {}
        }
        for slot in self.misses.fill(now, line) {
            self.complete_load_slot(now, slot, values, Some(&data));
        }
    }

    /// Give up (or downgrade) `line` in response to a directory fetch.
    fn surrender_line(
        &mut self,
        now: Cycle,
        line: LineAddr,
        dst: NodeId,
        for_excl: bool,
        fab: &mut Fabric,
    ) {
        let state = if for_excl {
            self.l1.invalidate(line)
        } else {
            let s = self.l1.state(line);
            if s.is_some() {
                self.l1.set_state(line, LineState::Shared);
            }
            s
        };
        if for_excl {
            self.on_lost_line(line);
        }
        fab.send(
            now,
            self.id(),
            dst,
            Message::FetchResp {
                line,
                dirty: state == Some(LineState::Dirty),
                had_line: state.is_some(),
            },
        );
    }

    /// The line left this cache (invalidation, fetch-excl, displacement):
    /// apply the model's speculation-repair rule.
    fn on_lost_line(&mut self, line: LineAddr) {
        match self.model {
            BaselineModel::Rc => {}
            BaselineModel::Sc | BaselineModel::Tso => {
                // Revalidate speculatively completed loads: re-issue.
                // TSO needs this too — loads must appear to perform in
                // program order among themselves (R→R is ppo).
                let mut hit = false;
                for s in self.window.iter_mut() {
                    if let Instr::Load { addr, .. } = s.instr {
                        if addr.line() == line && s.state == SlotState::Done {
                            s.state = SlotState::Waiting;
                            s.value = None;
                            hit = true;
                        }
                    }
                }
                if hit {
                    self.stats.load_reissues += 1;
                }
            }
            BaselineModel::Scpp => {
                let victim = self
                    .epochs
                    .iter()
                    .find(|e| e.reads.contains(&line) || e.writes.contains(&line))
                    .map(|e| e.id);
                if let Some(eid) = victim {
                    self.squash_to_epoch(eid);
                }
            }
        }
    }

    /// Current SC++ epoch length, shrunk exponentially under repeated
    /// squashes.
    fn epoch_len(&self) -> u64 {
        (EPOCH_INSTRS >> self.epoch_squash_streak.min(7)).max(8)
    }

    /// SC++ rollback: discard all work of epochs `>= eid` and restore the
    /// checkpoint.
    fn squash_to_epoch(&mut self, eid: u64) {
        self.epoch_squash_streak += 1;
        let pos = self
            .epochs
            .iter()
            .position(|e| e.id == eid)
            .expect("squash target exists");
        // Restore the program (and pending feed/stash) to the epoch's
        // start.
        self.program = self.epochs[pos].checkpoint.clone_box();
        self.feed = self.epochs[pos].checkpoint_feed;
        self.stash = self.epochs[pos].checkpoint_stash;
        self.program_done = false;
        // Count wasted work: everything retired in the squashed epochs
        // plus everything still in the window.
        let mut wasted = self.window.squash_all();
        for e in self.epochs.iter().skip(pos) {
            wasted += e.retired;
        }
        self.stats.retired = self
            .stats
            .retired
            .saturating_sub(self.epochs.iter().skip(pos).map(|e| e.retired).sum::<u64>());
        self.stats.squashes += 1;
        self.stats.squashed_instrs += wasted;
        // Drop speculative stores of the squashed epochs.
        self.store_buffer.retain(|e| e.epoch < eid);
        // Clear waiting-load registrations (slots are gone); keep the
        // line interests so in-flight data still fills the cache.
        self.misses.clear_waiters();
        self.completions.clear();
        self.awaiting = None;
        self.slot_epochs.clear();
        self.epochs.truncate(pos);
        self.open_epoch();
    }
}
