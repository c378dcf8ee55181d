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
use bulksc_sig::{Addr, LineAddr};
use bulksc_stats::Histogram;
use bulksc_trace::{Event, TraceHandle};
use bulksc_workloads::{Instr, ThreadProgram};

use crate::config::CoreConfig;
use crate::window::{InstrWindow, SlotId, SlotState};
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
    /// L1 misses (requests sent to the directory).
    pub l1_misses: u64,
    /// Nacks received.
    pub nacks: u64,
    /// Cycle at which this core finished its program, if it has.
    pub finished_at: Option<Cycle>,
    /// L1 miss latency: request sent to fill (or upgrade ack) received.
    pub lat_miss: Histogram,
}

#[derive(Debug)]
struct MissEntry {
    /// True if exclusivity (ownership) is required.
    excl: bool,
    /// Request currently in flight.
    sent: bool,
    /// Cycle the request went out (for miss-latency accounting).
    sent_at: Cycle,
    /// Retry barrier after a Nack.
    retry_at: Cycle,
    /// Loads waiting for this line.
    waiting_loads: Vec<SlotId>,
    /// An invalidation raced past the in-flight fill: the response data is
    /// already stale by coherence order. The fill must not install the
    /// line, and SC/SC++ must replay the waiting loads.
    invalidated: bool,
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
    dir_of: fn(LineAddr) -> u32,

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
    misses: HashMap<LineAddr, MissEntry>,
    completions: BinaryHeap<Reverse<(Cycle, SlotId)>>,

    store_buffer: VecDeque<SbEntry>,

    /// Fetch requests that arrived while our own fill for the line was in
    /// flight: answered after the fill lands (plus a grace cycle so the
    /// head store can perform during its ownership tenure).
    pending_fetches: HashMap<LineAddr, (NodeId, bool)>,
    deferred_fetches: Vec<(Cycle, LineAddr, NodeId, bool)>,

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
    /// after `budget` retired dynamic instructions (or program end).
    /// `dir_of` maps a line to the directory module owning it.
    pub fn new(
        core: u32,
        model: BaselineModel,
        cfg: CoreConfig,
        l1: CacheConfig,
        program: Box<dyn ThreadProgram>,
        budget: u64,
        dir_of: fn(LineAddr) -> u32,
    ) -> Self {
        let mut node = BaselineNode {
            core,
            model,
            cfg,
            dir_of,
            program,
            program_done: false,
            budget,
            window: InstrWindow::new(cfg.window_size),
            awaiting: None,
            feed: None,
            stash: None,
            slot_epochs: HashMap::new(),
            l1: SetAssocCache::new(l1),
            misses: HashMap::new(),
            completions: BinaryHeap::new(),
            store_buffer: VecDeque::new(),
            pending_fetches: HashMap::new(),
            deferred_fetches: Vec::new(),
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

    /// The thread program (for reading observations after a run).
    pub fn program(&self) -> &dyn ThreadProgram {
        self.program.as_ref()
    }

    /// True once the program has ended and all its effects have drained.
    pub fn finished(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    fn dir_node(&self, line: LineAddr) -> NodeId {
        NodeId::Dir((self.dir_of)(line))
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

    /// Advance this core by one cycle.
    pub fn tick(&mut self, now: Cycle, fab: &mut Fabric, values: &mut ValueStore) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Execute);
        // Protocol obligations outlive the program: a finished core must
        // still answer fetches deferred behind its last fills.
        self.answer_deferred_fetches(now, fab);
        if self.finished() {
            return;
        }
        self.pop_completions(now, values);
        self.retire(now, values);
        self.drain_store_buffer(now, fab, values);
        self.issue(now, fab);
        self.send_pending_misses(now, fab);
        self.fetch(now);
        self.check_finished(now);
    }

    fn pop_completions(&mut self, now: Cycle, values: &mut ValueStore) {
        while let Some(&Reverse((t, slot))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            self.complete_load_slot(now, slot, values);
        }
    }

    /// Transition a load slot to Done, capturing its value with
    /// store-to-load forwarding from older in-flight stores.
    fn complete_load_slot(&mut self, now: Cycle, slot: SlotId, values: &ValueStore) {
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
        match self.forwarded_value(slot, addr, values) {
            Some(v) => {
                let s = self.window.get_mut(slot).expect("slot exists");
                s.state = SlotState::Done;
                s.value = Some(v);
            }
            None => {
                // An older RMW to the same word has not performed yet:
                // its result is unknown, so retry shortly.
                self.completions.push(Reverse((now + 1, slot)));
            }
        }
    }

    /// The value a load at `slot` must observe: the youngest older same-
    /// word store in the window, else the youngest store-buffer entry,
    /// else committed memory. `None` if it would forward from an
    /// unperformed RMW (value not yet known).
    fn forwarded_value(&self, slot: SlotId, addr: Addr, values: &ValueStore) -> Option<u64> {
        let mut forwarded: Option<Option<u64>> = None;
        for s in self.window.iter() {
            if s.id() >= slot {
                break;
            }
            match s.instr {
                Instr::Store { addr: a, value } if a == addr => {
                    forwarded = Some(Some(value));
                }
                Instr::Rmw { addr: a, .. } if a == addr => {
                    forwarded = Some(None); // unknown until it performs
                }
                _ => {}
            }
        }
        if let Some(v) = forwarded {
            return v;
        }
        if let Some(e) = self.store_buffer.iter().rev().find(|e| e.addr == addr) {
            return Some(e.value);
        }
        Some(values.read(addr))
    }

    fn retire(&mut self, now: Cycle, values: &mut ValueStore) {
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
                    if head_state != SlotState::Done {
                        break;
                    }
                    if !self.may_perform_mem(now) {
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
                            if !self.may_perform_mem(now) {
                                break;
                            }
                            // Perform strictly at the head: needs ownership.
                            if !self.try_perform_store(now, addr, value, values) {
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
                        self.want_line(now, addr.line(), true, None);
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
    fn may_perform_mem(&self, now: Cycle) -> bool {
        self.model != BaselineModel::Sc || now >= self.last_mem_retire + self.cfg.l1_latency
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
    ) -> bool {
        if self.line_owned(addr.line()) {
            values.write(addr, value);
            self.l1.set_state(addr.line(), LineState::Dirty);
            return true;
        }
        self.want_line(now, addr.line(), true, None);
        false
    }

    fn line_owned(&self, line: LineAddr) -> bool {
        matches!(
            self.l1.state(line),
            Some(LineState::Exclusive) | Some(LineState::Dirty)
        )
    }

    fn drain_store_buffer(&mut self, now: Cycle, _fab: &mut Fabric, values: &mut ValueStore) {
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
            } else {
                self.want_line(now, head.addr.line(), true, None);
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
            if !self.line_owned(line) {
                self.want_line(now, line, true, None);
            }
        }
    }

    fn issue(&mut self, now: Cycle, _fab: &mut Fabric) {
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
                        self.want_line(now, addr.line(), false, Some(id));
                        if let Some(s) = self.window.get_mut(id) {
                            s.state = SlotState::Issued;
                        }
                    }
                }
                Instr::Store { addr, .. } | Instr::Rmw { addr, .. } => {
                    // Exclusive prefetch; the op itself performs at retire.
                    if !self.line_owned(addr.line()) {
                        self.want_line(now, addr.line(), true, None);
                    }
                    if let Some(s) = self.window.get_mut(id) {
                        s.state = SlotState::Done; // nothing more to do pre-retire
                    }
                }
                _ => {}
            }
        }
    }

    /// Register interest in `line`; `excl` requires ownership; `waiter` is
    /// a load slot to complete on arrival.
    fn want_line(&mut self, now: Cycle, line: LineAddr, excl: bool, waiter: Option<SlotId>) {
        let entry = self.misses.entry(line).or_insert_with(|| MissEntry {
            excl,
            sent: false,
            sent_at: 0,
            retry_at: now,
            waiting_loads: Vec::new(),
            invalidated: false,
        });
        entry.excl |= excl;
        if let Some(w) = waiter {
            if !entry.waiting_loads.contains(&w) {
                entry.waiting_loads.push(w);
            }
        }
    }

    fn send_pending_misses(&mut self, now: Cycle, fab: &mut Fabric) {
        let in_flight = self.misses.values().filter(|m| m.sent).count() as u32;
        let mut budget = self.cfg.mshrs.saturating_sub(in_flight);
        if budget == 0 {
            return;
        }
        // Deterministic order: by line address.
        let mut lines: Vec<LineAddr> = self
            .misses
            .iter()
            .filter(|(_, m)| !m.sent && m.retry_at <= now)
            .map(|(&l, _)| l)
            .collect();
        lines.sort_unstable();
        for line in lines {
            if budget == 0 {
                break;
            }
            let src = self.id();
            let dst = self.dir_node(line);
            let m = self.misses.get_mut(&line).expect("listed above");
            let msg = if m.excl {
                if self.l1.state(line) == Some(LineState::Shared) {
                    Message::Upgrade { line }
                } else {
                    Message::ReadExcl { line }
                }
            } else {
                Message::ReadShared { line }
            };
            m.sent = true;
            m.sent_at = now;
            self.stats.l1_misses += 1;
            fab.send(now, src, dst, msg);
            budget -= 1;
        }
    }

    fn fetch(&mut self, _now: Cycle) {
        if self.awaiting.is_some() {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.program_done && self.stash.is_none() {
                return;
            }
            if self.stats.retired + self.window.occupancy() >= self.budget {
                // Budget reached: stop fetching; in-flight work drains.
                self.program_done = true;
                return;
            }
            // SC++ epoch boundary at fetch time. Consecutive squashes
            // shrink the epoch so some work can become safe (quiesce)
            // before the next conflicting invalidation lands.
            if self.model == BaselineModel::Scpp && self.epoch_fetched >= self.epoch_len() {
                self.open_epoch();
            }
            // Fetching consumes the program's next instruction before we
            // know whether the window has room, so a rejected instruction
            // is stashed and retried first on the next fetch.
            let instr = match self.stash.take() {
                Some(i) => i,
                None => {
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

    fn check_finished(&mut self, now: Cycle) {
        if self.stats.finished_at.is_none()
            && self.program_done
            && self.stash.is_none()
            && self.window.is_empty()
            && self.store_buffer.is_empty()
        {
            self.stats.finished_at = Some(now);
        }
    }

    /// Earliest cycle at which this node may do useful work. Used by the
    /// surrounding system to skip idle cycles; returning `now` is always
    /// safe.
    pub fn idle_until(&self, now: Cycle) -> Cycle {
        if self.finished() {
            return self
                .deferred_fetches
                .iter()
                .map(|&(c, ..)| c)
                .min()
                .unwrap_or(Cycle::MAX);
        }
        // Un-issued memory operations are immediate work.
        if self.window.iter().any(|s| s.state == SlotState::Waiting) {
            return now;
        }
        // Retirable or fetchable work right now?
        if let Some(head) = self.window.oldest() {
            let retirable = match head.instr {
                Instr::Compute(_) => true,
                Instr::Fence => self.model != BaselineModel::Tso || self.store_buffer.is_empty(),
                Instr::Load { .. } => head.state == SlotState::Done && self.may_perform_mem(now),
                // "Line not owned with no miss registered" counts as
                // retirable work: the retire pass is what files the
                // ownership request, and nothing else will wake us to do
                // it (e.g. the store buffer drained after retire already
                // broke this cycle, or an invalidated in-flight fill
                // dropped the miss).
                Instr::Store { .. } => match self.model {
                    BaselineModel::Sc => {
                        let line = head_line(head.instr);
                        (self.line_owned(line) || !self.misses.contains_key(&line))
                            && self.may_perform_mem(now)
                    }
                    _ => self.store_buffer.len() < self.cfg.store_buffer as usize,
                },
                Instr::Rmw { .. } => {
                    let line = head_line(head.instr);
                    self.store_buffer.is_empty()
                        && (self.line_owned(line) || !self.misses.contains_key(&line))
                }
                Instr::Io => self.store_buffer.is_empty() && self.misses.is_empty(),
            };
            if retirable {
                return now;
            }
        }
        if (!self.program_done || self.stash.is_some()) && self.awaiting.is_none() {
            return now;
        }
        if self
            .store_buffer
            .front()
            .map(|e| self.line_owned(e.addr.line()) || !self.misses.contains_key(&e.addr.line()))
            .unwrap_or(false)
        {
            return now;
        }
        if self.misses.values().any(|m| !m.sent && m.retry_at <= now) {
            return now;
        }
        let mut t = Cycle::MAX;
        if let Some(&Reverse((c, _))) = self.completions.peek() {
            t = t.min(c);
        }
        for &(c, ..) in &self.deferred_fetches {
            t = t.min(c);
        }
        if self.model == BaselineModel::Sc && !self.window.is_empty() {
            t = t.min(self.last_mem_retire + self.cfg.l1_latency);
        }
        for m in self.misses.values() {
            if !m.sent {
                t = t.min(m.retry_at);
            }
        }
        t.max(now + 1)
    }

    /// One-line diagnostic snapshot (for debugging stuck systems).
    pub fn debug_state(&self) -> String {
        let head = self
            .window
            .oldest()
            .map(|s| format!("{:?}/{:?}", s.instr, s.state));
        format!(
            "core{} head={head:?} win={} sb={} misses={:?} pend_fetch={:?} awaiting={:?} done={} finished={:?}",
            self.core,
            self.window.len(),
            self.store_buffer.len(),
            self.misses
                .iter()
                .map(|(l, m)| format!("{l}:sent={},inv={}", m.sent, m.invalidated))
                .collect::<Vec<_>>(),
            self.pending_fetches.keys().collect::<Vec<_>>(),
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
                if let Some(m) = self.misses.remove(&line) {
                    if m.sent {
                        self.stats.lat_miss.record(now.saturating_sub(m.sent_at));
                    }
                    // Loads merged into the upgraded miss read the (still
                    // valid, now exclusive) local copy.
                    for slot in m.waiting_loads {
                        self.complete_load_slot(now, slot, values);
                    }
                }
            }
            Message::Inv { line } => {
                let state = self.l1.invalidate(line);
                let dirty = state == Some(LineState::Dirty);
                if let Some(m) = self.misses.get_mut(&line) {
                    m.invalidated = true;
                }
                self.on_lost_line(line);
                fab.send(now, self.id(), env.src, Message::InvAck { line, dirty });
            }
            Message::Fetch { line, for_excl } => {
                if self.misses.get(&line).map(|m| m.sent).unwrap_or(false) {
                    // Our own fill for this line is still in flight (the
                    // directory made us owner before our data arrived):
                    // answer once the fill lands.
                    self.pending_fetches.insert(line, (env.src, for_excl));
                } else {
                    self.surrender_line(now, line, env.src, for_excl, fab);
                }
            }
            Message::Nack { line } => {
                self.stats.nacks += 1;
                if let Some(m) = self.misses.get_mut(&line) {
                    m.sent = false;
                    m.retry_at = now + self.cfg.nack_retry;
                }
                // Our request was denied, so no fill is coming: a fetch
                // deferred behind it must be answered now (we are a false
                // owner — §4.3.1's graceful case).
                if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
                    self.surrender_line(now, line, src, for_excl, fab);
                }
            }
            Message::DisplaceSig { line, .. } => {
                let state = self.l1.invalidate(line);
                let dirty = state == Some(LineState::Dirty);
                if let Some(m) = self.misses.get_mut(&line) {
                    m.invalidated = true;
                }
                self.on_lost_line(line);
                fab.send(now, self.id(), env.src, Message::InvAck { line, dirty });
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
        data: bulksc_sig::LineData,
        fab: &mut Fabric,
        values: &mut ValueStore,
    ) {
        // A fill whose line was invalidated while the response was in
        // flight is stale by coherence order: do not install it, and
        // replay (SC/SC++) or complete (RC: the load performed at the
        // directory's serve point, which precedes the invalidation).
        if self
            .misses
            .get(&line)
            .map(|m| m.invalidated)
            .unwrap_or(false)
        {
            if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
                self.surrender_line(now, line, src, for_excl, fab);
            }
            let m = self.misses.remove(&line).expect("checked above");
            for slot in m.waiting_loads {
                match self.model {
                    BaselineModel::Rc => {
                        self.complete_load_slot_with_line(now, slot, values, line, &data);
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
            let still_needed = m.excl
                && (self.window.iter().any(|s| {
                    matches!(
                        s.instr,
                        Instr::Store { addr, .. } | Instr::Rmw { addr, .. }
                            if addr.line() == line
                    )
                }) || self.store_buffer.iter().any(|e| e.addr.line() == line));
            if still_needed {
                self.want_line(now, line, true, None);
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
                    self.dir_node(victim),
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
        if let Some(m) = self.misses.remove(&line) {
            if m.sent {
                self.stats.lat_miss.record(now.saturating_sub(m.sent_at));
            }
            for slot in m.waiting_loads {
                self.complete_load_slot_with_line(now, slot, values, line, &data);
            }
        }
        if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
            // Grace period: let the head store perform during its tenure.
            self.deferred_fetches
                .push((now + self.cfg.l1_latency + 1, line, src, for_excl));
        }
    }

    /// Like [`Self::complete_load_slot`], but loads to `line` observe the
    /// value snapshot `data` carried by the data response (the value the
    /// directory served, not the value at arrival time).
    fn complete_load_slot_with_line(
        &mut self,
        now: Cycle,
        slot: SlotId,
        values: &ValueStore,
        line: LineAddr,
        data: &bulksc_sig::LineData,
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
        match self.forwarded_value(slot, addr, values) {
            Some(v) => {
                let snapshot = if addr.line() == line {
                    // Only forwardings from our own in-flight stores may
                    // override the response payload.
                    match self.own_store_forward(slot, addr) {
                        Some(fwd) => fwd,
                        None => data[addr.line_offset() as usize],
                    }
                } else {
                    v
                };
                let s = self.window.get_mut(slot).expect("slot exists");
                s.state = SlotState::Done;
                s.value = Some(snapshot);
            }
            None => {
                self.completions.push(Reverse((now + 1, slot)));
            }
        }
    }

    /// The youngest older same-word store (window or store buffer) a load
    /// must forward from, if any. `None` means read from memory/response.
    fn own_store_forward(&self, slot: SlotId, addr: Addr) -> Option<u64> {
        let mut fwd = None;
        for s in self.window.iter() {
            if s.id() >= slot {
                break;
            }
            if let Instr::Store { addr: a, value } = s.instr {
                if a == addr {
                    fwd = Some(value);
                }
            }
        }
        if fwd.is_some() {
            return fwd;
        }
        self.store_buffer
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    /// Answer fetches deferred behind our own in-flight fills.
    fn answer_deferred_fetches(&mut self, now: Cycle, fab: &mut Fabric) {
        let due: Vec<(Cycle, LineAddr, NodeId, bool)> = self
            .deferred_fetches
            .iter()
            .filter(|(t, ..)| *t <= now)
            .copied()
            .collect();
        self.deferred_fetches.retain(|(t, ..)| *t > now);
        for (_, line, src, for_excl) in due {
            self.surrender_line(now, line, src, for_excl, fab);
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
        for m in self.misses.values_mut() {
            m.waiting_loads.clear();
        }
        self.completions.clear();
        self.awaiting = None;
        self.slot_epochs.clear();
        self.epochs.truncate(pos);
        self.open_epoch();
    }
}

fn head_line(i: Instr) -> LineAddr {
    i.addr().expect("memory instruction").line()
}
