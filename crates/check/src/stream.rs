//! Streaming, windowed SC certification in bounded memory.
//!
//! The batch oracle in `crate::order` materializes every access and
//! the whole Shasha–Snir constraint graph before sorting — fine for a
//! million accesses, hopeless for the 100M-access traces a scaled-up
//! run emits. This module certifies the same po ∪ rf ∪ co ∪ fr union
//! incrementally, keeping only a bounded *frontier* live:
//!
//! * Accesses arrive in trace-stream order and are buffered into fixed
//!   size **windows**. When a window fills, its accesses join the live
//!   constraint graph: po edges against each core's carried last access,
//!   co edges by per-address arrival order, and rf/fr edges resolved by
//!   value against the live write records (unique-value writes make the
//!   rf source unambiguous — see DESIGN.md §13).
//! * After each seal the live graph is topologically sorted. A cycle is
//!   reported exactly as the batch checker would report it; otherwise
//!   the *ancestor closure* of the previous window's accesses is
//!   **placed**: appended to the certified witness prefix, replayed
//!   against the running memory image, and retired from the graph. The
//!   closure is what makes the emitted prefix a valid topological
//!   prefix — nothing outside it can be constrained to precede it.
//! * **Retention rule**: a write record stays resolvable until its
//!   coherence successor is at least one full window old; the last
//!   write per address is kept forever (it is what any future read of
//!   that address should see). Everything older is expired, so live
//!   state is O(window + address working set), independent of trace
//!   length.
//! * Each seal emits a [`Checkpoint`] — witness-prefix length, a rolling
//!   FNV-1a hash of the placed order, live-set size — so a verdict on an
//!   arbitrarily long trace is auditable without storing the witness.
//!
//! **Batch is one window**: with `window = usize::MAX` every access is
//! resolved in a single seal against the complete write set, and the
//! construction (edge insertion order, Kahn queue order, replay) is
//! line-for-line the batch algorithm's — [`crate::check`] is now a
//! wrapper over this module, and certificates and violation reports are
//! byte-identical to the historical batch ones.
//!
//! **Windowed divergences** (multi-window mode only, all documented in
//! DESIGN.md §13): the stream must be *causal* (a read arrives after
//! the write it observes) and per-core po-monotone across windows; a
//! read more than a window staler than its address's write history is
//! reported as a violation rather than tolerated; ambiguity counts are
//! frontier-local.
//!
//! Window seals can be parallelized over the deterministic worker pool
//! ([`StreamConfig::jobs`]): read resolution — the dominant cost — is
//! pure lookup against the frozen write records, so shards are merged
//! back in stream order and the verdict is byte-identical at any width.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::BufRead;

use bulksc_pool::{run_all, Job};

use crate::order::{
    find_cycle, violation, CheckError, EdgeKind, MemoryModel, ScCertificate, ViolationKind,
};
use crate::{parse_header_line, parse_trace_line, Access, AccessKind, LifecycleEvent, TraceLine};

/// Tuning for one streaming certification.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Accesses per window. `usize::MAX` makes the whole trace one
    /// window (exact batch semantics, unbounded memory).
    pub window: usize,
    /// Worker-pool width for per-window read resolution. Verdicts are
    /// byte-identical at any width; only wall-clock changes.
    pub jobs: usize,
    /// How many recent chunk-lifecycle events to keep for violation
    /// reports (a ring buffer; the batch wrapper keeps all of them).
    pub lifecycle_cap: usize,
    /// Record the full witness order (only sensible for small traces —
    /// the whole point of windowing is not storing O(n) state).
    pub record_witness: bool,
    /// Keep at most this many per-seal checkpoints.
    pub checkpoint_cap: usize,
    /// The memory model to certify against (default SC). See
    /// [`MemoryModel`] for what TSO relaxes.
    pub model: MemoryModel,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 1 << 20,
            jobs: 1,
            lifecycle_cap: 1 << 16,
            record_witness: false,
            checkpoint_cap: 256,
            model: MemoryModel::Sc,
        }
    }
}

impl StreamConfig {
    /// The configuration [`crate::check`] wraps: one window covering the
    /// whole trace, full witness, every lifecycle event retained.
    pub fn batch() -> Self {
        StreamConfig {
            window: usize::MAX,
            jobs: 1,
            lifecycle_cap: usize::MAX,
            record_witness: true,
            checkpoint_cap: 0,
            model: MemoryModel::Sc,
        }
    }

    /// A bounded-memory configuration with the given window size.
    pub fn windowed(window: usize) -> Self {
        StreamConfig {
            window: window.max(1),
            ..StreamConfig::default()
        }
    }

    /// Set the worker-pool width for window seals.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Set the memory model to certify against.
    pub fn with_model(mut self, model: MemoryModel) -> Self {
        self.model = model;
        self
    }
}

/// One audited point of a streaming certification: the state of the
/// certified prefix right after a window seal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Which window this seal closed (0-based).
    pub window: u64,
    /// Accesses placed in the certified witness prefix so far.
    pub placed: usize,
    /// Accesses still live (unplaced) after this seal.
    pub live: usize,
    /// Write records still resolvable after expiry.
    pub write_records: usize,
    /// Rolling FNV-1a hash over the placed witness order.
    pub witness_hash: u64,
}

/// Proof that a streamed execution is SC, in bounded space: counters,
/// the final memory image from the incremental witness replay, and the
/// per-seal checkpoints. The full witness order is only present when
/// [`StreamConfig::record_witness`] was set.
#[derive(Clone, Debug)]
pub struct StreamCertificate {
    /// The model the execution was certified against.
    pub model: MemoryModel,
    /// Accesses certified.
    pub accesses: usize,
    /// Witness edges discharged (po + rf + co + fr, including edges
    /// whose source was already placed when the sink arrived).
    pub edges: usize,
    /// Reads whose rf source was ambiguous among the live write records.
    pub ambiguous_reads: usize,
    /// Windows sealed (including the final partial one).
    pub windows: u64,
    /// Peak live (unplaced) access count across all seals — the memory
    /// bound actually achieved, ≤ 2 windows by construction.
    pub peak_live: usize,
    /// Peak live write-record count across all seals.
    pub peak_write_records: usize,
    /// FNV-1a hash over the full placed witness order.
    pub witness_hash: u64,
    /// Memory after replaying the witness (addresses written only).
    pub final_memory: BTreeMap<u64, u64>,
    /// Per-seal audit trail (capped at `checkpoint_cap`).
    pub checkpoints: Vec<Checkpoint>,
    /// The witness order, if recording was on.
    pub witness: Option<Vec<usize>>,
}

impl StreamCertificate {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}-certified (streaming): {} accesses in {} windows, {} witness \
             edges, {} ambiguous reads, peak {} live accesses / {} write \
             records, {} locations written, witness hash {:016x}",
            self.model.name(),
            self.accesses,
            self.windows,
            self.edges,
            self.ambiguous_reads,
            self.peak_live,
            self.peak_write_records,
            self.final_memory.len(),
            self.witness_hash
        )
    }

    /// Convert to the batch certificate type.
    ///
    /// # Panics
    ///
    /// Panics if witness recording was off.
    pub fn into_sc(self) -> ScCertificate {
        ScCertificate {
            model: self.model,
            accesses: self.accesses,
            edges: self.edges,
            ambiguous_reads: self.ambiguous_reads,
            witness: self.witness.expect("witness recording was off"),
            final_memory: self.final_memory,
        }
    }
}

/// Why a JSONL streaming check could not run to a verdict.
#[derive(Clone, Debug)]
pub enum StreamError {
    /// The input could not be read or parsed (message names the origin
    /// and 1-based line).
    Input(String),
    /// The checker reached a verdict of "not SC" (or a malformed trace).
    Check(CheckError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Input(m) => f.write_str(m),
            StreamError::Check(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

/// How a read's rf source was pinned down, for the incremental replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resolution {
    /// Not a read, or not resolved yet.
    Unresolved,
    /// Unique source (a write or the virtual initial store): the replay
    /// must observe exactly the read's value.
    Pinned,
    /// TSO only: unique source on the reader's own core (store-buffer
    /// forwarding). The witness may legally order the read before its
    /// source's global visibility, so the replay check is skipped; the
    /// per-location coherence scan covers it instead.
    PinnedInternal,
    /// Ambiguous source: edges skipped, replay check skipped.
    Ambiguous,
}

/// A live (unplaced) access.
struct LiveAccess {
    a: Access,
    res: Resolution,
    window: u64,
}

/// A live write record: resolvable as an rf source until expired.
struct WriteRec {
    a: Access,
    rank: u64,
    window: u64,
    placed: bool,
    /// Reads that resolved rf to this write while it was the last write
    /// at its address: their fr edge is deferred until the coherence
    /// successor arrives.
    readers: Vec<usize>,
}

/// Per-address frontier state.
#[derive(Default)]
struct AddrState {
    /// Live records in coherence (= arrival) order. Expiry pops from the
    /// front; the back (the current last write) is never expired.
    recs: VecDeque<WriteRec>,
    /// Total writes ever seen at this address (the next co rank).
    writes: u64,
    /// Records dropped by the retention rule.
    expired: u64,
    /// Copy of the first write ever (for torn-RMW / stale-init reports).
    first_write: Option<Access>,
    /// Whether that first write is already in the certified prefix.
    first_placed: bool,
    /// Reads of the initial 0 that arrived before any write: their fr
    /// edge is deferred until the first write (if any) arrives.
    init_readers: Vec<usize>,
}

/// Outcome of resolving one read against the frozen write records. Pure
/// data so window shards can compute these in parallel; they are applied
/// serially in stream order.
enum ReadOutcome {
    Ambiguous,
    /// Init read, no write at the address yet: register for a deferred
    /// fr edge.
    InitNoWriteYet,
    /// Init read: fr edge to the (unplaced) first write.
    InitEdge {
        first: usize,
    },
    /// An RMW that read the initial value and is itself the first write.
    InitRmwOk,
    /// Unique rf source `w`, plus what the fr edge should be.
    RfEdge {
        w: usize,
        w_placed: bool,
        /// The source write's core (TSO drops same-core rf edges) and
        /// coherence rank (TSO's per-location scan).
        w_core: u32,
        w_rank: u64,
        fr: FrApply,
    },
    // Violations:
    Unsourced {
        stale: u64,
    },
    StaleInit {
        first: Access,
    },
    Stale {
        value: u64,
        succ: Access,
    },
    TornRmwInit {
        first: Option<Access>,
    },
    TornRmw {
        w: Access,
    },
}

enum FrApply {
    /// No fr edge (the read's own write is the co successor).
    None,
    /// fr edge to this (unplaced) successor write.
    Edge(usize),
    /// No successor yet: register on the source write's reader list.
    Register,
}

/// Resolve one read against the live write records. Pure: no `&mut`
/// anywhere, so window shards run it concurrently and the merged result
/// is independent of pool width.
fn resolve_read(
    addrs: &HashMap<u64, AddrState>,
    writers: &HashMap<(u64, u64), Vec<usize>>,
    a: &Access,
) -> ReadOutcome {
    let v = a.observed().expect("resolve_read takes reads");
    let is_rmw = matches!(a.kind, AccessKind::Rmw { .. });
    let st = addrs.get(&a.addr);
    // An RMW whose new value equals its old one would otherwise list
    // itself as a candidate source.
    let candidates: Vec<usize> = writers
        .get(&(a.addr, v))
        .map(|c| c.iter().copied().filter(|&w| w != a.idx).collect())
        .unwrap_or_default();
    let from_init_possible = v == 0;
    match (candidates.len(), from_init_possible) {
        (0, false) => ReadOutcome::Unsourced {
            stale: st.map_or(0, |s| s.expired),
        },
        (0, true) => {
            let first = st.and_then(|s| s.first_write);
            if is_rmw {
                if first.map(|f| f.idx) == Some(a.idx) {
                    ReadOutcome::InitRmwOk
                } else {
                    ReadOutcome::TornRmwInit { first }
                }
            } else if let Some(f) = first {
                if st.expect("first write implies state").first_placed {
                    ReadOutcome::StaleInit { first: f }
                } else {
                    ReadOutcome::InitEdge { first: f.idx }
                }
            } else {
                ReadOutcome::InitNoWriteYet
            }
        }
        (1, false) => {
            let w = candidates[0];
            let s = st.expect("a live candidate implies address state");
            let i = s
                .recs
                .binary_search_by_key(&w, |r| r.a.idx)
                .expect("live writer has a live record");
            let rec = &s.recs[i];
            if is_rmw {
                let own = s
                    .recs
                    .binary_search_by_key(&a.idx, |r| r.a.idx)
                    .map(|j| s.recs[j].rank)
                    .expect("an RMW's own write has a live record");
                if own != rec.rank + 1 {
                    return ReadOutcome::TornRmw { w: rec.a };
                }
            }
            let fr = match s.recs.get(i + 1) {
                None => FrApply::Register,
                Some(succ) if succ.a.idx == a.idx => FrApply::None,
                Some(succ) if succ.placed => {
                    return ReadOutcome::Stale {
                        value: v,
                        succ: succ.a,
                    }
                }
                Some(succ) => FrApply::Edge(succ.a.idx),
            };
            ReadOutcome::RfEdge {
                w,
                w_placed: rec.placed,
                w_core: rec.a.core,
                w_rank: rec.rank,
                fr,
            }
        }
        _ => ReadOutcome::Ambiguous,
    }
}

/// TSO per-core program-order frontier. A TSO node's value trace is two
/// po-monotone sub-streams per core — loads/RMWs emitted at retire,
/// stores at store-buffer drain — so the write frontier can trail the
/// read frontier in po, and a draining store must take its R→W edge
/// from the last *read* with a smaller po, not the core's newest access.
#[derive(Default)]
struct TsoCoreState {
    /// Last read-bearing access (load or RMW) sealed for this core.
    last_r: Option<Access>,
    /// Last write-bearing access (store or RMW) sealed for this core.
    last_w: Option<Access>,
    /// Read-bearing accesses in po order, pruned as stores consume
    /// them: candidates for a late store's R→W ppo edge. Bounded by the
    /// traced machine's store-buffer drain skew (see DESIGN.md §15).
    reads_log: VecDeque<(u64, usize)>,
}

/// One entry of the TSO per-location coherence scan: the coherence
/// position an access claims, shifted so the initial value is 0 and a
/// write with co rank r sits at r + 1.
#[derive(Clone, Copy, Debug)]
enum CohRank {
    /// A parked read whose source has not arrived yet.
    Pending,
    /// An ambiguous read: no position claim, skipped.
    Skip,
    /// A read that observed this coherence position (must be ≥ the
    /// highest position the core already established at this address).
    Read(u64),
    /// A write at this coherence position (must be > everything the
    /// core established: same-core stores drain in po order).
    Write(u64),
}

/// Per-(core, address) state of the TSO coherence scan: per-location SC
/// — CoRR / CoWR / CoWW / CoRW — checked in program order as entries
/// become safe to order (no earlier-po access can still arrive).
#[derive(Default)]
struct CohState {
    /// po → claimed position. Writes are checkable on arrival; reads
    /// wait until the core's write frontier passes their po (a buffered
    /// store with a smaller po could still drain) or the trace ends.
    q: BTreeMap<u64, (CohRank, Access)>,
    /// Highest coherence position established along po so far.
    max: u64,
    /// The access that established `max` (for violation reports).
    max_acc: Option<Access>,
}

/// The streaming checker: push accesses (and lifecycle context) in
/// trace-stream order, then [`StreamChecker::finish`] for the verdict.
/// Violations and malformed input surface from `push` as soon as the
/// offending window seals.
pub struct StreamChecker {
    cfg: StreamConfig,
    /// Total accesses pushed (the next expected `idx`).
    total: usize,
    /// The window currently filling.
    incoming: Vec<Access>,
    cur_window: u64,
    /// Live (unplaced) accesses, ascending by stream index; `adj` is the
    /// edge list over the same slots.
    arena: Vec<LiveAccess>,
    adj: Vec<Vec<(usize, EdgeKind)>>,
    /// Stream index → live slot.
    slot_of: HashMap<usize, usize>,
    /// Per-core last sealed access (the po frontier) and whether it has
    /// been placed. SC model only.
    tails: HashMap<u32, (Access, bool)>,
    /// TSO model only: the dual (read/write) po frontier per core.
    tso_tails: HashMap<u32, TsoCoreState>,
    /// TSO model only: reads that observed a value no arrived write has
    /// published, parked until a matching same-core store drains
    /// (store-buffer forwarding across a window boundary), keyed by
    /// (addr, value). Still parked at finish ⇒ unsourced violation.
    pending: HashMap<(u64, u64), Vec<Access>>,
    /// TSO model only: the per-location coherence scan (BTreeMap so the
    /// first violation found is deterministic).
    coh: BTreeMap<(u32, u64), CohState>,
    addrs: HashMap<u64, AddrState>,
    /// (addr, value) → live writers of that value, ascending.
    writers: HashMap<(u64, u64), Vec<usize>>,
    /// The incremental witness-replay memory image.
    mem: BTreeMap<u64, u64>,
    lifecycle: VecDeque<LifecycleEvent>,
    edges: usize,
    ambiguous: usize,
    placed: usize,
    witness_hash: u64,
    witness: Option<Vec<usize>>,
    checkpoints: Vec<Checkpoint>,
    windows_sealed: u64,
    peak_live: usize,
    peak_recs: usize,
    failed: Option<CheckError>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The unsourced-read headline, shared by the immediate (SC) path and
/// the TSO parked-read path so the reports stay identical.
fn unsourced_headline(a: &Access, v: u64, stale: u64) -> String {
    if stale == 0 {
        format!(
            "a read observed value {v} at 0x{:x}, but no write ever \
             published that value there (and memory starts at 0)",
            a.addr
        )
    } else {
        format!(
            "a read observed value {v} at 0x{:x}, but no live write \
             published that value there (memory starts at 0; {stale} \
             earlier writes at this address were already retired \
             beyond the streaming window and could have published it)",
            a.addr
        )
    }
}

fn add_edge(
    adj: &mut [Vec<(usize, EdgeKind)>],
    edges: &mut usize,
    from: usize,
    to: usize,
    kind: EdgeKind,
) {
    adj[from].push((to, kind));
    *edges += 1;
}

impl StreamChecker {
    /// A fresh checker.
    pub fn new(cfg: StreamConfig) -> StreamChecker {
        StreamChecker {
            cfg,
            total: 0,
            incoming: Vec::new(),
            cur_window: 0,
            arena: Vec::new(),
            adj: Vec::new(),
            slot_of: HashMap::new(),
            tails: HashMap::new(),
            tso_tails: HashMap::new(),
            pending: HashMap::new(),
            coh: BTreeMap::new(),
            addrs: HashMap::new(),
            writers: HashMap::new(),
            mem: BTreeMap::new(),
            lifecycle: VecDeque::new(),
            edges: 0,
            ambiguous: 0,
            placed: 0,
            witness_hash: FNV_OFFSET,
            witness: None,
            checkpoints: Vec::new(),
            windows_sealed: 0,
            peak_live: 0,
            peak_recs: 0,
            failed: None,
        }
    }

    /// Feed one access. Seals (and certifies) a window whenever
    /// [`StreamConfig::window`] accesses have accumulated, so an error
    /// may describe any access of the window just sealed.
    pub fn push(&mut self, a: Access) -> Result<(), CheckError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if a.idx != self.total {
            let e = CheckError::Malformed(format!(
                "access at stream position {} carries idx {}",
                self.total, a.idx
            ));
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.total += 1;
        self.incoming.push(a);
        if self.incoming.len() >= self.cfg.window {
            self.seal(false).inspect_err(|e| {
                self.failed = Some(e.clone());
            })?;
        }
        Ok(())
    }

    /// Feed one chunk-lifecycle event (context for violation reports).
    /// Kept in a ring of the most recent [`StreamConfig::lifecycle_cap`]
    /// events.
    pub fn push_lifecycle(&mut self, e: LifecycleEvent) {
        if self.cfg.lifecycle_cap == 0 {
            return;
        }
        if self.lifecycle.len() >= self.cfg.lifecycle_cap {
            self.lifecycle.pop_front();
        }
        self.lifecycle.push_back(e);
    }

    /// Seal the final (partial) window, place everything still live, and
    /// return the certificate.
    pub fn finish(mut self) -> Result<StreamCertificate, CheckError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if self.cfg.record_witness && self.witness.is_none() {
            self.witness = Some(Vec::new());
        }
        self.seal(true)?;
        Ok(StreamCertificate {
            model: self.cfg.model,
            accesses: self.total,
            edges: self.edges,
            ambiguous_reads: self.ambiguous,
            windows: self.windows_sealed,
            peak_live: self.peak_live,
            peak_write_records: self.peak_recs,
            witness_hash: self.witness_hash,
            final_memory: self.mem,
            checkpoints: self.checkpoints,
            witness: self.witness,
        })
    }

    fn violate(
        &self,
        kind: ViolationKind,
        offenders: Vec<Access>,
        edge_kinds: Vec<EdgeKind>,
        headline: String,
    ) -> CheckError {
        let life: Vec<LifecycleEvent> = self.lifecycle.iter().copied().collect();
        violation(offenders, &life, kind, edge_kinds, headline, self.cfg.model)
    }

    /// TSO program order for one core's window slice (already sorted by
    /// po): ppo keeps R→R, W→W, and R→W order and drops every pure
    /// store → pure load pair — the order a FIFO store buffer relaxes.
    /// RMWs drain the buffer first, so they order against both
    /// frontiers and re-anchor both.
    fn seal_po_tso(&mut self, core: u32, slots: &[usize]) -> Result<(), CheckError> {
        for &s in slots {
            let x = self.arena[s].a;
            let is_read = x.observed().is_some();
            let is_write = x.published().is_some();
            // Malformedness is per sub-stream: loads retire in po order
            // and stores drain in po order, but a store may arrive after
            // po-later loads (it sat in the buffer).
            for (part, tail) in [
                (is_read, self.tso_tails.get(&core).and_then(|t| t.last_r)),
                (is_write, self.tso_tails.get(&core).and_then(|t| t.last_w)),
            ] {
                let Some(t) = tail else { continue };
                if !part {
                    continue;
                }
                if x.po == t.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} has two accesses with program-order index {}",
                        x.po
                    )));
                }
                if x.po < t.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} access with program-order index {} arrived \
                         after index {} was sealed in an earlier window: windowed \
                         checking requires per-core po-monotone streams",
                        x.po, t.po
                    )));
                }
            }
            let state = self.tso_tails.entry(core).or_default();
            let mut preds: Vec<usize> = Vec::new();
            if is_read {
                if let Some(t) = state.last_r {
                    preds.push(t.idx);
                }
            }
            if is_write {
                if let Some(t) = state.last_w {
                    if !preds.contains(&t.idx) {
                        preds.push(t.idx);
                    }
                }
                if !is_read {
                    // Pure store: its R→W edge comes from the last read
                    // with a *smaller* po — the read frontier itself may
                    // already be past this store's po.
                    while state.reads_log.len() >= 2 && state.reads_log[1].0 < x.po {
                        state.reads_log.pop_front();
                    }
                    if let Some(&(rpo, ridx)) = state.reads_log.front() {
                        if rpo < x.po && !preds.contains(&ridx) {
                            preds.push(ridx);
                        }
                    }
                }
            }
            if is_read {
                if matches!(x.kind, AccessKind::Rmw { .. }) {
                    // Everything earlier is transitively ordered through
                    // the RMW: it re-anchors the R→W candidate log.
                    state.reads_log.clear();
                }
                state.reads_log.push_back((x.po, x.idx));
                state.last_r = Some(x);
            }
            if is_write {
                state.last_w = Some(x);
            }
            for idx in preds {
                match self.slot_of.get(&idx) {
                    Some(&from) => add_edge(&mut self.adj, &mut self.edges, from, s, EdgeKind::Po),
                    None => self.edges += 1, // already satisfied by the prefix
                }
            }
        }
        Ok(())
    }

    /// Advance the TSO per-location coherence scan: per (core, address),
    /// coherence positions must be non-decreasing along program order
    /// (strictly increasing across writes). An entry is checked only
    /// once no earlier-po access can still arrive — writes immediately
    /// (every po-earlier access has retired, hence arrived, when a store
    /// drains), reads once the core's write frontier passes their po or
    /// the trace ends.
    fn coh_advance(&mut self, finalize: bool) -> Result<(), CheckError> {
        let mut found: Option<(Access, Access, u64, u64)> = None;
        'scan: for ((core, _addr), st) in self.coh.iter_mut() {
            let wbound = self
                .tso_tails
                .get(core)
                .and_then(|t| t.last_w.as_ref())
                .map(|a| a.po);
            while let Some((&po, &(rank, acc))) = st.q.first_key_value() {
                let ready = match rank {
                    CohRank::Write(_) => true,
                    CohRank::Pending => false,
                    _ => finalize || wbound.is_some_and(|b| po <= b),
                };
                if !ready {
                    break;
                }
                st.q.pop_first();
                let (pos, strict) = match rank {
                    CohRank::Write(r) => (r, true),
                    CohRank::Read(r) => (r, false),
                    CohRank::Skip | CohRank::Pending => continue,
                };
                if pos < st.max || (strict && pos == st.max) {
                    let prev = st.max_acc.expect("a position above 0 was recorded");
                    found = Some((prev, acc, st.max, pos));
                    break 'scan;
                }
                if pos > st.max {
                    st.max = pos;
                    st.max_acc = Some(acc);
                }
            }
        }
        if let Some((prev, acc, had, got)) = found {
            return Err(self.violate(
                ViolationKind::Coherence,
                vec![prev, acc],
                Vec::new(),
                format!(
                    "core {} saw address 0x{:x}'s write history out of order: a \
                     program-order-later access claims coherence position {got} \
                     after position {had} was already established — per-location \
                     SC (CoRR/CoWR/CoWW/CoRW) binds under TSO too",
                    acc.core, acc.addr
                ),
            ));
        }
        Ok(())
    }

    /// Certify one window: admit the buffered accesses into the live
    /// graph, sort, place the ancestor closure of the previous window
    /// (everything, when `finalize`), expire stale write records, and
    /// checkpoint.
    fn seal(&mut self, finalize: bool) -> Result<(), CheckError> {
        let w = self.cur_window;
        let new: Vec<Access> = std::mem::take(&mut self.incoming);
        let first_new_slot = self.arena.len();

        // 1. Admit into the live arena (slots stay ascending by idx).
        for a in &new {
            let slot = self.arena.len();
            self.slot_of.insert(a.idx, slot);
            self.arena.push(LiveAccess {
                a: *a,
                res: Resolution::Unresolved,
                window: w,
            });
            self.adj.push(Vec::new());
        }

        // 2. po: per-core program order within the window, chained to the
        // carried per-core tail across windows.
        let mut per_core: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for slot in first_new_slot..self.arena.len() {
            per_core
                .entry(self.arena[slot].a.core)
                .or_default()
                .push(slot);
        }
        for (core, slots) in per_core.iter_mut() {
            slots.sort_by_key(|&s| self.arena[s].a.po);
            if self.cfg.model == MemoryModel::Tso {
                self.seal_po_tso(*core, slots)?;
                continue;
            }
            if let Some((tail, tail_placed)) = self.tails.get(core) {
                let first = self.arena[slots[0]].a;
                if first.po == tail.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} has two accesses with program-order index {}",
                        first.po
                    )));
                }
                if first.po < tail.po {
                    return Err(CheckError::Malformed(format!(
                        "core {core} access with program-order index {} arrived \
                         after index {} was sealed in an earlier window: windowed \
                         checking requires per-core po-monotone streams",
                        first.po, tail.po
                    )));
                }
                if *tail_placed {
                    self.edges += 1; // already satisfied by the prefix
                } else {
                    let from = self.slot_of[&tail.idx];
                    add_edge(&mut self.adj, &mut self.edges, from, slots[0], EdgeKind::Po);
                }
            }
            for pair in slots.windows(2) {
                let (a, b) = (self.arena[pair[0]].a, self.arena[pair[1]].a);
                if a.po == b.po {
                    return Err(CheckError::Malformed(format!(
                        "core {} has two accesses with program-order index {}",
                        a.core, a.po
                    )));
                }
                add_edge(
                    &mut self.adj,
                    &mut self.edges,
                    pair[0],
                    pair[1],
                    EdgeKind::Po,
                );
            }
            let last = self.arena[*slots.last().expect("nonempty group")].a;
            self.tails.insert(*core, (last, false));
        }

        // 3. co + write records, in arrival (= coherence) order. Also
        // discharges fr edges that were deferred until a coherence
        // successor existed.
        for slot in first_new_slot..self.arena.len() {
            let a = self.arena[slot].a;
            let Some(v) = a.published() else { continue };
            let st = self.addrs.entry(a.addr).or_default();
            let rank = st.writes;
            st.writes += 1;
            if rank == 0 {
                st.first_write = Some(a);
                for r in std::mem::take(&mut st.init_readers) {
                    match self.slot_of.get(&r) {
                        Some(&rs) => {
                            add_edge(&mut self.adj, &mut self.edges, rs, slot, EdgeKind::Fr)
                        }
                        None => self.edges += 1, // reader already placed
                    }
                }
            }
            if let Some(prev) = st.recs.back_mut() {
                for r in std::mem::take(&mut prev.readers) {
                    match self.slot_of.get(&r) {
                        Some(&rs) => {
                            add_edge(&mut self.adj, &mut self.edges, rs, slot, EdgeKind::Fr)
                        }
                        None => self.edges += 1, // reader already placed
                    }
                }
                if prev.placed {
                    self.edges += 1; // co edge satisfied by the prefix
                } else {
                    let from = self.slot_of[&prev.a.idx];
                    add_edge(&mut self.adj, &mut self.edges, from, slot, EdgeKind::Co);
                }
            }
            st.recs.push_back(WriteRec {
                a,
                rank,
                window: w,
                placed: false,
                readers: Vec::new(),
            });
            self.writers.entry((a.addr, v)).or_default().push(a.idx);
            if self.cfg.model == MemoryModel::Tso {
                self.coh
                    .entry((a.core, a.addr))
                    .or_default()
                    .q
                    .insert(a.po, (CohRank::Write(rank + 1), a));
                // Discharge reads that parked on this (addr, value): a
                // same-core read is store-buffer forwarding (internal
                // rf — no ghb edge, replay skipped, fr deferred on this
                // record); a cross-core read observed the store before
                // it was globally visible, which even TSO forbids.
                if let Some(waiters) = self.pending.remove(&(a.addr, v)) {
                    for rd in waiters {
                        if rd.core != a.core {
                            return Err(self.violate(
                                ViolationKind::UnsourcedRead,
                                vec![a, rd],
                                Vec::new(),
                                format!(
                                    "a read on core {} observed value {v} at 0x{:x} \
                                     before the only store publishing it (on core {}) \
                                     became visible: TSO forwarding lets a core read \
                                     its own buffered store early, never another \
                                     core's",
                                    rd.core, rd.addr, a.core
                                ),
                            ));
                        }
                        st.recs
                            .back_mut()
                            .expect("record just pushed")
                            .readers
                            .push(rd.idx);
                        if let Some(&rs) = self.slot_of.get(&rd.idx) {
                            self.arena[rs].res = Resolution::PinnedInternal;
                        }
                        self.coh
                            .entry((rd.core, rd.addr))
                            .or_default()
                            .q
                            .insert(rd.po, (CohRank::Read(rank + 1), rd));
                    }
                }
            }
        }

        // 4. rf / fr: resolve the window's reads against the live write
        // records. Resolution is pure lookup, so it shards across the
        // worker pool; outcomes are applied serially in stream order, so
        // edges, ambiguity counts, and the first violation are identical
        // at any pool width.
        let reads: Vec<(usize, Access)> = (first_new_slot..self.arena.len())
            .filter(|&s| self.arena[s].a.observed().is_some())
            .map(|s| (s, self.arena[s].a))
            .collect();
        let outcomes: Vec<ReadOutcome> = if self.cfg.jobs > 1 && reads.len() > 1 {
            let addrs = &self.addrs;
            let writers = &self.writers;
            let shard = reads.len().div_ceil(self.cfg.jobs);
            let jobs: Vec<Job<Vec<ReadOutcome>>> = reads
                .chunks(shard)
                .enumerate()
                .map(|(i, chunk)| {
                    Job::new(format!("stream window {w} shard {i}"), move || {
                        chunk
                            .iter()
                            .map(|(_, a)| resolve_read(addrs, writers, a))
                            .collect()
                    })
                })
                .collect();
            run_all(self.cfg.jobs, jobs).into_iter().flatten().collect()
        } else {
            reads
                .iter()
                .map(|(_, a)| resolve_read(&self.addrs, &self.writers, a))
                .collect()
        };
        let tso = self.cfg.model == MemoryModel::Tso;
        for (&(slot, a), outcome) in reads.iter().zip(outcomes) {
            let v = a.observed().expect("reads observe");
            let is_rmw = matches!(a.kind, AccessKind::Rmw { .. });
            match outcome {
                ReadOutcome::Ambiguous => {
                    self.ambiguous += 1;
                    self.arena[slot].res = Resolution::Ambiguous;
                    if tso && !is_rmw {
                        self.coh
                            .entry((a.core, a.addr))
                            .or_default()
                            .q
                            .insert(a.po, (CohRank::Skip, a));
                    }
                }
                ReadOutcome::InitNoWriteYet => {
                    self.arena[slot].res = Resolution::Pinned;
                    self.addrs
                        .entry(a.addr)
                        .or_default()
                        .init_readers
                        .push(a.idx);
                    if tso {
                        self.coh
                            .entry((a.core, a.addr))
                            .or_default()
                            .q
                            .insert(a.po, (CohRank::Read(0), a));
                    }
                }
                ReadOutcome::InitEdge { first } => {
                    self.arena[slot].res = Resolution::Pinned;
                    let to = self.slot_of[&first];
                    add_edge(&mut self.adj, &mut self.edges, slot, to, EdgeKind::Fr);
                    if tso {
                        self.coh
                            .entry((a.core, a.addr))
                            .or_default()
                            .q
                            .insert(a.po, (CohRank::Read(0), a));
                    }
                }
                ReadOutcome::InitRmwOk => {
                    // The RMW's write entry (step 3) carries its position
                    // in the TSO coherence scan.
                    self.arena[slot].res = Resolution::Pinned;
                }
                ReadOutcome::RfEdge {
                    w,
                    w_placed,
                    w_core,
                    w_rank,
                    fr,
                } => {
                    // TSO: a same-core rf is store-buffer forwarding —
                    // the read may precede its source's global
                    // visibility, so rf contributes no ghb edge and the
                    // replay check is skipped (rfe edges stay). RMWs
                    // drain the buffer first, so their rf is never a
                    // forward.
                    let internal = tso && w_core == a.core && !is_rmw;
                    self.arena[slot].res = if internal {
                        Resolution::PinnedInternal
                    } else {
                        Resolution::Pinned
                    };
                    if internal {
                        // rfi: not part of ppo ∪ rfe ∪ co ∪ fr.
                    } else if w_placed {
                        self.edges += 1; // rf satisfied by the prefix
                    } else {
                        let from = self.slot_of[&w];
                        add_edge(&mut self.adj, &mut self.edges, from, slot, EdgeKind::Rf);
                    }
                    match fr {
                        FrApply::None => {}
                        FrApply::Edge(succ) => {
                            let to = self.slot_of[&succ];
                            add_edge(&mut self.adj, &mut self.edges, slot, to, EdgeKind::Fr);
                        }
                        FrApply::Register => {
                            let st = self.addrs.get_mut(&a.addr).expect("writer implies state");
                            let i = st
                                .recs
                                .binary_search_by_key(&w, |r| r.a.idx)
                                .expect("resolved writer is live");
                            st.recs[i].readers.push(a.idx);
                        }
                    }
                    if tso && !is_rmw {
                        self.coh
                            .entry((a.core, a.addr))
                            .or_default()
                            .q
                            .insert(a.po, (CohRank::Read(w_rank + 1), a));
                    }
                }
                ReadOutcome::Unsourced { stale } => {
                    if tso && !is_rmw {
                        // Possibly a store-buffer forward whose store
                        // drains in a later window: park until the
                        // matching write arrives (step 3 discharges it;
                        // still parked at finish ⇒ violation below).
                        self.pending.entry((a.addr, v)).or_default().push(a);
                        self.coh
                            .entry((a.core, a.addr))
                            .or_default()
                            .q
                            .insert(a.po, (CohRank::Pending, a));
                        continue;
                    }
                    return Err(self.violate(
                        ViolationKind::UnsourcedRead,
                        vec![a],
                        Vec::new(),
                        unsourced_headline(&a, v, stale),
                    ));
                }
                ReadOutcome::StaleInit { first } => {
                    return Err(self.violate(
                        ViolationKind::StaleRead,
                        vec![first, a],
                        Vec::new(),
                        format!(
                            "a read observed the initial value 0 at 0x{:x}, but that \
                             address's first write is already in the certified witness \
                             prefix: the read is stale by more than a checking window",
                            a.addr
                        ),
                    ));
                }
                ReadOutcome::Stale { value, succ } => {
                    return Err(self.violate(
                        ViolationKind::StaleRead,
                        vec![succ, a],
                        Vec::new(),
                        format!(
                            "a read observed value {value} at 0x{:x}, but the write \
                             overwriting that value is already in the certified witness \
                             prefix: the read is stale by more than a checking window",
                            a.addr
                        ),
                    ));
                }
                ReadOutcome::TornRmwInit { first } => {
                    let mut set = vec![a];
                    if let Some(f) = first {
                        set.insert(0, f);
                    }
                    return Err(self.violate(
                        ViolationKind::TornRmw,
                        set,
                        Vec::new(),
                        "a read-modify-write observed the initial value but \
                         its own write is not first in coherence order: \
                         another write intervened"
                            .to_string(),
                    ));
                }
                ReadOutcome::TornRmw { w } => {
                    return Err(self.violate(
                        ViolationKind::TornRmw,
                        vec![w, a],
                        Vec::new(),
                        "a read-modify-write read from a write that is not its \
                         immediate coherence-order predecessor: another write \
                         intervened between its read and its write"
                            .to_string(),
                    ));
                }
            }
        }

        // 4b. TSO: a read still parked at the end of the trace has no
        // source anywhere — the standard unsourced violation, reported
        // for the earliest such read. Then advance the per-location
        // coherence scan over everything that became orderable.
        if self.cfg.model == MemoryModel::Tso {
            if finalize && !self.pending.is_empty() {
                let mut parked: Vec<Access> = self.pending.values().flatten().copied().collect();
                parked.sort_by_key(|p| p.idx);
                let p = parked[0];
                let pv = p.observed().expect("parked accesses are reads");
                let stale = self.addrs.get(&p.addr).map_or(0, |s| s.expired);
                return Err(self.violate(
                    ViolationKind::UnsourcedRead,
                    vec![p],
                    Vec::new(),
                    unsourced_headline(&p, pv, stale),
                ));
            }
            self.coh_advance(finalize)?;
        }

        // 5. Kahn's algorithm over the live graph; leftovers are a cycle.
        let n = self.arena.len();
        let mut indeg = vec![0usize; n];
        for out in &self.adj {
            for &(to, _) in out {
                indeg[to] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            for &(to, _) in &self.adj[u] {
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push_back(to);
                }
            }
        }
        if topo.len() < n {
            let (cycle, kinds) = find_cycle(&self.adj, &indeg);
            let offenders: Vec<Access> = cycle.iter().map(|&s| self.arena[s].a).collect();
            let headline = match self.cfg.model {
                MemoryModel::Sc => {
                    "po ∪ rf ∪ co ∪ fr is cyclic: no sequentially consistent \
                     interleaving explains the observed values"
                }
                MemoryModel::Tso => {
                    "ppo ∪ rfe ∪ co ∪ fr is cyclic: no TSO-conformant \
                     execution explains the observed values"
                }
            };
            return Err(self.violate(ViolationKind::Cycle, offenders, kinds, headline.to_string()));
        }

        self.peak_live = self.peak_live.max(n);
        let total_recs: usize = self.addrs.values().map(|s| s.recs.len()).sum();
        self.peak_recs = self.peak_recs.max(total_recs);

        // 6. Place the ancestor closure of everything older than the
        // current window (all of it, on finalize): a valid topological
        // prefix, emitted in topo order, replayed, and retired.
        let mut in_set = vec![finalize; n];
        if !finalize {
            let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (u, out) in self.adj.iter().enumerate() {
                for &(to, _) in out {
                    radj[to].push(u);
                }
            }
            let mut stack: Vec<usize> = (0..n).filter(|&s| self.arena[s].window < w).collect();
            for &s in &stack {
                in_set[s] = true;
            }
            while let Some(u) = stack.pop() {
                for &p in &radj[u] {
                    if !in_set[p] {
                        in_set[p] = true;
                        stack.push(p);
                    }
                }
            }
        }
        for &u in &topo {
            if !in_set[u] {
                continue;
            }
            let la = &self.arena[u];
            let a = la.a;
            if la.res == Resolution::Pinned {
                let v = a.observed().expect("pinned implies read");
                let current = self.mem.get(&a.addr).copied().unwrap_or(0);
                if current != v {
                    return Err(CheckError::Malformed(format!(
                        "witness replay mismatch at access {}: observed {v} at \
                         0x{:x} but the witness memory holds {current} (oracle \
                         invariant broken)",
                        a.idx, a.addr
                    )));
                }
            }
            if let Some(v) = a.published() {
                self.mem.insert(a.addr, v);
                let st = self.addrs.get_mut(&a.addr).expect("write implies state");
                let i = st
                    .recs
                    .binary_search_by_key(&a.idx, |r| r.a.idx)
                    .expect("placed write has a live record");
                st.recs[i].placed = true;
                if st.first_write.map(|f| f.idx) == Some(a.idx) {
                    st.first_placed = true;
                }
            }
            if let Some((tail, tail_placed)) = self.tails.get_mut(&a.core) {
                if tail.idx == a.idx {
                    *tail_placed = true;
                }
            }
            self.placed += 1;
            self.witness_hash = (self.witness_hash ^ a.idx as u64).wrapping_mul(FNV_PRIME);
            if let Some(witness) = &mut self.witness {
                witness.push(a.idx);
            }
        }

        // Compact: rebuild the arena and edge lists over the survivors.
        let mut remap = vec![usize::MAX; n];
        let mut arena = Vec::with_capacity(n.saturating_sub(self.placed.min(n)));
        let mut adj = Vec::new();
        self.slot_of.clear();
        for (u, la) in self.arena.drain(..).enumerate() {
            if in_set[u] {
                continue;
            }
            remap[u] = arena.len();
            self.slot_of.insert(la.a.idx, arena.len());
            arena.push(la);
        }
        for (u, out) in self.adj.drain(..).enumerate() {
            if remap[u] == usize::MAX {
                continue;
            }
            let filtered: Vec<(usize, EdgeKind)> = out
                .into_iter()
                .filter_map(|(to, k)| {
                    // Edges from a survivor into the placed set cannot
                    // exist (the placed set is ancestor-closed).
                    debug_assert!(remap[to] != usize::MAX, "edge into the placed prefix");
                    (remap[to] != usize::MAX).then_some((remap[to], k))
                })
                .collect();
            adj.push(filtered);
        }
        self.arena = arena;
        self.adj = adj;

        // 7. Retention: expire write records whose coherence successor is
        // at least one full window old; the last write per address stays
        // resolvable forever.
        if !finalize {
            for (&addr, st) in self.addrs.iter_mut() {
                while st.recs.len() > 1 && st.recs[1].window < w {
                    let dead = st.recs.pop_front().expect("len checked");
                    st.expired += 1;
                    let v = dead.a.published().expect("records are writes");
                    if let Some(list) = self.writers.get_mut(&(addr, v)) {
                        list.retain(|&g| g != dead.a.idx);
                        if list.is_empty() {
                            self.writers.remove(&(addr, v));
                        }
                    }
                }
            }
        }

        // 8. Checkpoint the certified prefix.
        self.windows_sealed += 1;
        if self.checkpoints.len() < self.cfg.checkpoint_cap {
            self.checkpoints.push(Checkpoint {
                window: w,
                placed: self.placed,
                live: self.arena.len(),
                write_records: self.addrs.values().map(|s| s.recs.len()).sum(),
                witness_hash: self.witness_hash,
            });
        }
        self.cur_window += 1;
        Ok(())
    }
}

/// Run the streaming checker over an in-memory access slice (the
/// streaming counterpart of [`crate::check`]).
pub fn check_stream(
    accesses: &[Access],
    lifecycle: &[LifecycleEvent],
    cfg: StreamConfig,
) -> Result<StreamCertificate, CheckError> {
    let mut checker = StreamChecker::new(cfg);
    for e in lifecycle {
        checker.push_lifecycle(*e);
    }
    for a in accesses {
        checker.push(*a)?;
    }
    checker.finish()
}

/// Certify a JSONL event stream line-by-line from any [`BufRead`]: the
/// whole-trace string, the access vector, and the full constraint graph
/// are never materialized. `origin` (a path, `"-"`, a label) is quoted
/// with a 1-based line number in every input error.
pub fn check_jsonl_reader<R: BufRead>(
    mut r: R,
    origin: &str,
    cfg: StreamConfig,
) -> Result<StreamCertificate, StreamError> {
    let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
    let mut checker = StreamChecker::new(cfg);
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut count = 0usize;
    loop {
        line.clear();
        let n = r.read_line(&mut line).map_err(|e| {
            StreamError::Input(format!("{origin}: read error after line {lineno}: {e}"))
        })?;
        if n == 0 {
            break;
        }
        lineno += 1;
        if lineno == 1 {
            parse_header_line(line.trim_end(), origin).map_err(StreamError::Input)?;
            continue;
        }
        match parse_trace_line(line.trim_end(), lineno, origin).map_err(StreamError::Input)? {
            TraceLine::Access(mut a) => {
                a.idx = count;
                count += 1;
                checker.push(a).map_err(StreamError::Check)?;
            }
            TraceLine::Lifecycle(e) => checker.push_lifecycle(e),
            TraceLine::Skip => {}
        }
    }
    if lineno == 0 {
        return Err(StreamError::Input(format!("{origin}: empty trace")));
    }
    checker.finish().map_err(StreamError::Check)
}

/// Certify a BTF artifact with decode and check overlapped: a dedicated
/// decode thread parses blocks and classifies events
/// ([`crate::classify_event`]), shipping plain-data [`TraceLine`] batches
/// over a bounded channel while this thread assigns stream positions and
/// seals windows. Memory stays flat — at most `channel depth + 1` decoded
/// blocks exist at once — and the JSONL and BTF paths see byte-for-byte
/// the same access stream, because both classify through the same policy
/// function.
pub fn check_btf_reader<R: std::io::Read + Send>(
    r: R,
    origin: &str,
    cfg: StreamConfig,
) -> Result<StreamCertificate, StreamError> {
    let _prof = bulksc_prof::scope(bulksc_prof::Phase::Oracle);
    let mut checker = StreamChecker::new(cfg);
    let mut count = 0usize;
    let fed = &mut checker;
    std::thread::scope(|scope| -> Result<(), StreamError> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Vec<TraceLine>, String>>(8);
        scope.spawn(move || {
            let mut reader = match bulksc_trace::BtfReader::new(r) {
                Ok(reader) => reader,
                Err(e) => {
                    let _ = tx.send(Err(e.to_string()));
                    return;
                }
            };
            loop {
                match reader.next_block() {
                    Ok(Some(block)) => {
                        let lines: Vec<TraceLine> = block
                            .iter()
                            .map(|(cycle, ev)| crate::classify_event(*cycle, ev))
                            .collect();
                        if tx.send(Ok(lines)).is_err() {
                            return; // checker bailed out; stop decoding
                        }
                    }
                    Ok(None) => return,
                    Err(e) => {
                        let _ = tx.send(Err(e.to_string()));
                        return;
                    }
                }
            }
        });
        for batch in rx {
            let batch = batch.map_err(|e| StreamError::Input(format!("{origin}: {e}")))?;
            for line in batch {
                match line {
                    TraceLine::Access(mut a) => {
                        a.idx = count;
                        count += 1;
                        fed.push(a).map_err(StreamError::Check)?;
                    }
                    TraceLine::Lifecycle(e) => fed.push_lifecycle(e),
                    TraceLine::Skip => {}
                }
            }
        }
        Ok(())
    })?;
    checker.finish().map_err(StreamError::Check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use std::io::Cursor;

    /// Synthesize a legal (SC by construction) interleaved trace with the
    /// same shape as the million-access soak test: unique-value stores,
    /// loads of the current memory value, periodic RMWs.
    fn synth(n: usize, cores: u32, words: u64) -> Vec<Access> {
        let mut mem: HashMap<u64, u64> = HashMap::new();
        let mut po = vec![0u64; cores as usize];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let core = (i % cores as usize) as u32;
            let addr = (i as u64).wrapping_mul(0x9e37_79b9) % words * 8;
            let kind = if i % 35 == 4 {
                let old = mem.get(&addr).copied().unwrap_or(0);
                mem.insert(addr, i as u64 + 1);
                AccessKind::Rmw {
                    old,
                    new: i as u64 + 1,
                }
            } else if i % 5 < 2 {
                mem.insert(addr, i as u64 + 1);
                AccessKind::Store {
                    value: i as u64 + 1,
                }
            } else {
                AccessKind::Load {
                    value: mem.get(&addr).copied().unwrap_or(0),
                }
            };
            out.push(Access {
                idx: i,
                core,
                seq: (i / 100) as u64,
                po: po[core as usize],
                addr,
                kind,
                retired_at: 10 + i as u64,
                emitted_at: 20 + i as u64,
            });
            po[core as usize] += 1;
        }
        out
    }

    #[test]
    fn windowed_verdict_matches_batch_on_a_legal_trace() {
        let t = synth(8_000, 4, 32);
        let batch = check(&t, &[]).expect("legal by construction");
        let win = check_stream(&t, &[], StreamConfig::windowed(512))
            .expect("windowed certification agrees");
        assert_eq!(win.accesses, batch.accesses);
        assert_eq!(win.ambiguous_reads, batch.ambiguous_reads);
        assert_eq!(win.final_memory, batch.final_memory);
        assert!(win.windows > 1, "trace spans many windows");
        assert!(
            win.peak_live <= 2 * 512,
            "frontier bounded by two windows, got {}",
            win.peak_live
        );
        assert!(win.witness.is_none(), "windowed mode stores no witness");
    }

    #[test]
    fn peak_memory_is_flat_in_trace_length() {
        let short = check_stream(&synth(4_000, 4, 32), &[], StreamConfig::windowed(256))
            .expect("short certifies");
        let long = check_stream(&synth(16_000, 4, 32), &[], StreamConfig::windowed(256))
            .expect("long certifies");
        assert!(long.windows > 3 * short.windows);
        assert!(
            long.peak_live <= 2 * 256 && short.peak_live <= 2 * 256,
            "live set bounded by the window, not the trace: {} vs {}",
            short.peak_live,
            long.peak_live
        );
        assert!(
            long.peak_write_records <= short.peak_write_records + 64,
            "write records do not grow with trace length: {} vs {}",
            short.peak_write_records,
            long.peak_write_records
        );
    }

    #[test]
    fn pool_width_does_not_change_the_verdict() {
        let t = synth(6_000, 4, 32);
        let one = check_stream(&t, &[], StreamConfig::windowed(512)).expect("jobs=1");
        let four = check_stream(&t, &[], StreamConfig::windowed(512).with_jobs(4)).expect("jobs=4");
        assert_eq!(one.witness_hash, four.witness_hash);
        assert_eq!(one.edges, four.edges);
        assert_eq!(one.ambiguous_reads, four.ambiguous_reads);
        assert_eq!(one.checkpoints, four.checkpoints);
        assert_eq!(one.final_memory, four.final_memory);
    }

    #[test]
    fn single_window_equals_batch_including_the_witness() {
        let t = synth(2_000, 4, 16);
        let batch = check(&t, &[]).expect("legal");
        let one = check_stream(&t, &[], StreamConfig::batch()).expect("single window");
        assert_eq!(one.witness.as_deref(), Some(batch.witness.as_slice()));
        assert_eq!(one.edges, batch.edges);
        assert_eq!(one.windows, 1);
    }

    #[test]
    fn stale_init_read_is_rejected_in_windowed_mode() {
        // A read of the initial 0 arriving two windows after the first
        // write was placed: batch would certify (order the read first),
        // windowed mode reports it — the documented divergence.
        let mk = |idx, core, po, addr, kind| Access {
            idx,
            core,
            seq: 0,
            po,
            addr,
            kind,
            retired_at: 10 + idx as u64,
            emitted_at: 20 + idx as u64,
        };
        let t = [
            mk(0, 0, 0, 0x8, AccessKind::Store { value: 1 }),
            mk(1, 0, 1, 0x10, AccessKind::Store { value: 2 }),
            mk(2, 0, 2, 0x18, AccessKind::Store { value: 3 }),
            mk(3, 1, 0, 0x8, AccessKind::Load { value: 0 }),
        ];
        check(&t, &[]).expect("batch orders the init read first");
        let err = check_stream(&t, &[], StreamConfig::windowed(1)).expect_err("stale in windows");
        let CheckError::Violation(v) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::StaleRead);
        assert!(v.report.contains("certified witness prefix"));
    }

    #[test]
    fn po_regression_across_windows_is_malformed() {
        let mut t = synth(4, 1, 4);
        t[2].po = 1; // duplicates the sealed window's tail po
        let err = check_stream(&t, &[], StreamConfig::windowed(2)).expect_err("duplicate po");
        assert!(matches!(err, CheckError::Malformed(_)));
        assert!(err
            .to_string()
            .contains("two accesses with program-order index 1"));
        let mut t = synth(4, 1, 4);
        t[3].po = 1; // older than the sealed tail, but not a duplicate
        let err = check_stream(&t, &[], StreamConfig::windowed(3)).expect_err("po regressed");
        assert!(err.to_string().contains("po-monotone"));
    }

    #[test]
    fn checkpoints_are_capped_and_monotone() {
        let t = synth(4_000, 4, 32);
        let mut cfg = StreamConfig::windowed(256);
        cfg.checkpoint_cap = 4;
        let cert = check_stream(&t, &[], cfg).expect("certifies");
        assert_eq!(cert.checkpoints.len(), 4);
        for pair in cert.checkpoints.windows(2) {
            assert!(pair[0].window < pair[1].window);
            assert!(pair[0].placed <= pair[1].placed);
        }
        assert_eq!(cert.checkpoints[0].window, 0);
    }

    #[test]
    fn violations_inside_a_window_match_batch_reports() {
        // The forbidden SB outcome, streamed one access per push.
        let mk = |idx, core, po, addr, value, store| Access {
            idx,
            core,
            seq: 0,
            po,
            addr,
            kind: if store {
                AccessKind::Store { value }
            } else {
                AccessKind::Load { value }
            },
            retired_at: 10 + idx as u64,
            emitted_at: 20 + idx as u64,
        };
        let t = [
            mk(0, 0, 0, 0xa, 1, true),
            mk(1, 0, 1, 0xb, 0, false),
            mk(2, 1, 0, 0xb, 2, true),
            mk(3, 1, 1, 0xa, 0, false),
        ];
        let batch = check(&t, &[]).expect_err("forbidden SB");
        let stream = check_stream(&t, &[], StreamConfig::batch()).expect_err("forbidden SB");
        assert_eq!(
            batch.to_string(),
            stream.to_string(),
            "reports byte-identical"
        );
    }

    #[test]
    fn jsonl_reader_streams_and_names_lines() {
        use bulksc_trace::Event;
        let trace = format!(
            "{}\n{}\n{}\nnot json\n",
            bulksc_trace::jsonl_header(),
            Event::ValStore {
                core: 0,
                seq: 0,
                po: 0,
                addr: 8,
                value: 1,
                retired_at: 1,
            }
            .jsonl(1),
            Event::ValLoad {
                core: 1,
                seq: 0,
                po: 0,
                addr: 8,
                value: 1,
                retired_at: 2,
            }
            .jsonl(2),
        );
        let err = check_jsonl_reader(
            Cursor::new(trace.as_bytes()),
            "in.jsonl",
            StreamConfig::batch(),
        )
        .expect_err("bad line 4");
        let StreamError::Input(m) = err else {
            panic!("expected input error, got {err:?}");
        };
        assert!(m.starts_with("in.jsonl: line 4:"), "got {m}");

        let good = trace.rsplit_once("not json\n").unwrap().0;
        let cert = check_jsonl_reader(
            Cursor::new(good.as_bytes()),
            "in.jsonl",
            StreamConfig::batch(),
        )
        .expect("two-access trace certifies");
        assert_eq!(cert.accesses, 2);
        assert_eq!(cert.final_memory, BTreeMap::from([(8, 1)]));

        let err = check_jsonl_reader(Cursor::new(&b""[..]), "in.jsonl", StreamConfig::batch())
            .expect_err("empty");
        assert!(err.to_string().contains("empty trace"));
    }

    #[test]
    fn btf_reader_matches_jsonl_reader() {
        use bulksc_trace::Event;
        // Synthesize a legal trace, render it both ways, and demand the
        // two ingestion paths produce identical certificates.
        let accesses = synth(5_000, 4, 64);
        let mut jsonl = bulksc_trace::jsonl_header();
        jsonl.push('\n');
        let mut btf = bulksc_trace::BtfWriter::new(Vec::new())
            .unwrap()
            .with_block_events(512);
        for a in &accesses {
            let ev = match a.kind {
                AccessKind::Load { value } => Event::ValLoad {
                    core: a.core,
                    seq: a.seq,
                    po: a.po,
                    addr: a.addr,
                    value,
                    retired_at: a.retired_at,
                },
                AccessKind::Store { value } => Event::ValStore {
                    core: a.core,
                    seq: a.seq,
                    po: a.po,
                    addr: a.addr,
                    value,
                    retired_at: a.retired_at,
                },
                AccessKind::Rmw { old, new } => Event::ValRmw {
                    core: a.core,
                    seq: a.seq,
                    po: a.po,
                    addr: a.addr,
                    old,
                    new,
                    retired_at: a.retired_at,
                },
            };
            jsonl.push_str(&ev.jsonl(a.emitted_at));
            jsonl.push('\n');
            btf.push(a.emitted_at, &ev).unwrap();
        }
        let btf = btf.finish().unwrap();
        let cfg = StreamConfig::windowed(512).with_jobs(2);
        let from_text =
            check_jsonl_reader(Cursor::new(jsonl.as_bytes()), "t.jsonl", cfg.clone()).unwrap();
        let from_btf = check_btf_reader(Cursor::new(btf.as_slice()), "t.btf", cfg).unwrap();
        assert_eq!(from_text.accesses, from_btf.accesses);
        assert_eq!(from_text.witness_hash, from_btf.witness_hash);
        assert_eq!(from_text.final_memory, from_btf.final_memory);
        assert_eq!(from_text.summary(), from_btf.summary());

        // Input errors carry the origin, like the JSONL path's do.
        let err = check_btf_reader(Cursor::new(&b"junk"[..]), "t.btf", StreamConfig::batch())
            .expect_err("garbage");
        assert!(err.to_string().contains("t.btf"), "{err}");
    }
}
