//! Unified metrics registry for the whole workspace: what is the
//! simulator — and the sweep driving it — *doing right now*, and what did
//! it do in total?
//!
//! `SimReport` aggregates one run after the fact; `bulksc-prof` attributes
//! host time; this crate is the third leg: named counters, high-water
//! gauges, and histograms, collected per thread and merged into one
//! process-wide [`MetricsSnapshot`] for live heartbeats and a
//! Prometheus-style text exposition. The simulator's series are rendered
//! from its components' own stats blocks: a dropped `bulksc::System`
//! folds its run's totals into the thread's shard in one call. The worker
//! pool records its job series directly.
//!
//! # Design constraints
//!
//! * **Off by default, and out of band.** Every recording call first
//!   reads one `const`-initialized thread-local flag ([`is_enabled`]) and
//!   returns immediately when metrics are disabled. No simulator hot path
//!   records anything: the registry only reads a run's totals after the
//!   fact, so enabling metrics cannot change a single simulated cycle,
//!   event, or artifact byte (enforced by `tests/metrics_determinism.rs`
//!   at the workspace root).
//! * **Sharded per thread, merged deterministically.** All registry state
//!   is thread-local. Each `bulksc_bench::pool` worker brackets its jobs
//!   with [`enable`]/[`disable`] and [`publish`]es the resulting snapshot
//!   into the process-global accumulator after the join. Counters merge by
//!   summation, gauges by maximum, histograms by bucket-wise addition —
//!   all commutative — so the merged snapshot is identical at any worker
//!   width and any completion order.
//! * **Deterministic and host-time surfaces are separate.** Counters,
//!   gauges, and simulated-quantity histograms are pure functions of the
//!   simulated work and therefore byte-stable across runs and widths
//!   ([`MetricsSnapshot::deterministic_text`]). Host-time histograms
//!   (per-job wall nanoseconds) are real measurements and inherently
//!   noisy; they appear in the full exposition
//!   ([`MetricsSnapshot::to_text_exposition`]) but never in the
//!   deterministic surface.
//!
//! The [`live`] module is the one intentional exception to thread-local
//! sharding: a handful of process-global relaxed atomics (jobs done /
//! total / in flight, queue depth and its peak, and the squash tallies
//! of finished runs) that the sweep heartbeat thread reads while workers
//! are still running. Live state feeds heartbeat lines only — never an
//! artifact.

use std::cell::{Cell, RefCell};
use std::sync::Mutex;

use bulksc_stats::Histogram;

/// Declares one registry family from a single table: the enum (fixed
/// `#[repr(u8)]` ids in declaration order, so recording is an array
/// index, not a hash lookup), its member count, `ALL` in registry order,
/// and `name()`, the stable string the exposition carries (without the
/// `bulksc_` prefix).
macro_rules! registry {
    (
        $(#[$meta:meta])* $family:ident, $count:ident;
        $($(#[$doc:meta])* $member:ident => $name:literal,)+
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $family {
            $($(#[$doc])* $member,)+
        }

        #[doc = concat!("Number of registered `", stringify!($family), "` members.")]
        pub const $count: usize = [$($name),+].len();

        impl $family {
            /// Every member, in registry order.
            pub const ALL: [$family; $count] = [$($family::$member),+];

            /// The stable exposition name (without the `bulksc_` prefix).
            pub fn name(self) -> &'static str {
                match self {
                    $($family::$member => $name,)+
                }
            }
        }
    };
}

registry! {
    /// The static registry of workspace counters (monotonic event totals).
    Counter, COUNTER_COUNT;
    /// Chunks committed across all cores.
    ChunksCommitted => "sim_chunks_committed",
    /// Instructions inside committed chunks.
    InstrsCommitted => "sim_instrs_committed",
    /// Squashes caused by true sharing.
    SquashesTrueSharing => "sim_squashes_true_sharing",
    /// Squashes caused by signature aliasing (false positives).
    SquashesAlias => "sim_squashes_alias",
    /// Squashes caused by speculative-state overflow.
    SquashesOverflow => "sim_squashes_overflow",
    /// Instructions discarded by squashes.
    InstrsSquashed => "sim_instrs_squashed",
    /// Extra cache-line invalidations caused by signature aliasing.
    SigFpExtraInvs => "sim_sig_fp_extra_invs",
    /// Commit requests received by the (central or distributed) arbiters.
    ArbRequests => "sim_arb_requests",
    /// Commit requests denied by the arbiters.
    ArbDenials => "sim_arb_denials",
    /// Commit requests granted by the arbiters.
    ArbGrants => "sim_arb_grants",
    /// Proposals received by the G-arbiter (distributed mode).
    GarbRequests => "sim_garb_requests",
    /// G-arbiter fast-path denials (conflict known without a vote).
    GarbFastDenials => "sim_garb_fast_denials",
    /// G-arbiter full denials after a vote.
    GarbDenials => "sim_garb_denials",
    /// W signatures received by the directories for expansion.
    DirWsigsReceived => "sim_dir_wsigs_received",
    /// Directory tag lookups driven by signature expansion.
    DirLookups => "sim_dir_lookups",
    /// Lookups that hit no real line (signature false positives).
    DirLookupsUnnecessary => "sim_dir_lookups_unnecessary",
    /// Directory state updates driven by signature expansion.
    DirUpdates => "sim_dir_updates",
    /// Updates to lines the chunk never wrote (false positives).
    DirUpdatesUnnecessary => "sim_dir_updates_unnecessary",
    /// Sharer cores targeted by commit invalidations.
    DirInvTargets => "sim_dir_inv_targets",
    /// Messages sent on the interconnect (hops).
    FabricMessages => "sim_fabric_messages",
    /// Bytes moved on the interconnect.
    FabricBytes => "sim_fabric_bytes",
    /// Simulated runs driven to completion.
    RunsCompleted => "sim_runs_completed",
    /// Pool jobs completed.
    PoolJobsCompleted => "pool_jobs_completed",
    /// Pool jobs that panicked.
    PoolJobsPanicked => "pool_jobs_panicked",
}

impl Counter {
    /// The counter that tallies squashes of `cause`. This is the single
    /// source of truth binding the trace vocabulary to the metrics
    /// registry: the simulator core renders squash counters through
    /// this mapping, and a test below pins each mapped counter's
    /// exposition name to the cause's trace label so the two surfaces can
    /// never drift.
    pub fn for_squash_cause(cause: bulksc_trace::SquashCause) -> Counter {
        use bulksc_trace::SquashCause;
        match cause {
            SquashCause::TrueSharing => Counter::SquashesTrueSharing,
            SquashCause::Alias => Counter::SquashesAlias,
            SquashCause::Overflow => Counter::SquashesOverflow,
        }
    }
}

registry! {
    /// Registered gauges. Gauges here are *high-water marks*: [`gauge_peak`]
    /// keeps the maximum observed value, and shards merge by maximum — the
    /// only gauge semantic whose merge is order- and width-independent.
    Gauge, GAUGE_COUNT;
    /// Peak messages simultaneously in flight in one fabric.
    FabricDepthPeak => "sim_fabric_depth_peak",
    /// Peak W signatures simultaneously held by one arbiter.
    ArbPendingWPeak => "sim_arb_pending_w_peak",
    /// Peak depth of the pool's pending-job queue.
    PoolQueueDepthPeak => "pool_queue_depth_peak",
}

impl Gauge {
    /// True if the gauge tracks host-side state (excluded from the
    /// deterministic surface: it depends on wall-clock scheduling).
    pub fn host_side(self) -> bool {
        matches!(self, Gauge::PoolQueueDepthPeak)
    }
}

registry! {
    /// Registered histograms (backed by [`bulksc_stats::Histogram`]).
    Hist, HIST_COUNT;
    /// Instructions per committed chunk (simulated; deterministic).
    ChunkInstrs => "sim_chunk_instrs",
    /// Wall nanoseconds per completed pool job (host time; noisy).
    JobWallNs => "pool_job_wall_ns",
}

impl Hist {
    /// True if the histogram measures host time (excluded from the
    /// deterministic surface).
    pub fn host_time(self) -> bool {
        matches!(self, Hist::JobWallNs)
    }
}

/// One thread's registry shard.
struct Shard {
    counters: [u64; COUNTER_COUNT],
    gauges: [u64; GAUGE_COUNT],
    hists: [Histogram; HIST_COUNT],
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            counters: [0; COUNTER_COUNT],
            gauges: [0; GAUGE_COUNT],
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SHARD: RefCell<Shard> = RefCell::new(Shard::default());
}

/// Start collecting on this thread, discarding any previous shard.
pub fn enable() {
    SHARD.with(|s| *s.borrow_mut() = Shard::default());
    ENABLED.with(|e| e.set(true));
}

/// True if [`enable`] is active on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Stop collecting and return this thread's shard as a snapshot.
pub fn disable() -> MetricsSnapshot {
    ENABLED.with(|e| e.set(false));
    SHARD.with(|s| {
        let shard = std::mem::take(&mut *s.borrow_mut());
        MetricsSnapshot {
            counters: shard.counters,
            gauges: shard.gauges,
            hists: shard.hists.to_vec(),
        }
    })
}

/// Add 1 to `c`. Disabled (the default), this reads one thread-local
/// flag and returns.
#[inline]
pub fn inc(c: Counter) {
    add(c, 1);
}

/// Add `n` to `c`.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SHARD.with(|s| s.borrow_mut().counters[c as usize] += n);
}

/// Raise `g` to `v` if `v` exceeds the current high-water mark.
#[inline]
pub fn gauge_peak(g: Gauge, v: u64) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SHARD.with(|s| {
        let slot = &mut s.borrow_mut().gauges[g as usize];
        if v > *slot {
            *slot = v;
        }
    });
}

/// Record `v` into histogram `h`.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SHARD.with(|s| s.borrow_mut().hists[h as usize].record(v));
}

/// Merge a whole distribution into histogram `h` (a component that kept
/// its own [`Histogram`] of the same quantity).
pub fn merge_hist(h: Hist, other: &Histogram) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SHARD.with(|s| s.borrow_mut().hists[h as usize].merge(other));
}

/// A merged (or single-shard) view of the registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    counters: [u64; COUNTER_COUNT],
    gauges: [u64; GAUGE_COUNT],
    hists: Vec<Histogram>,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; COUNTER_COUNT],
            gauges: [0; GAUGE_COUNT],
            hists: (0..HIST_COUNT).map(|_| Histogram::new()).collect(),
        }
    }
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The high-water mark of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// One histogram.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(Histogram::is_empty)
    }

    /// Merge another snapshot into this one. Counters sum, gauges take
    /// the maximum, histograms merge bucket-wise — every operation is
    /// commutative and associative, so any merge order over any shard
    /// partition yields the identical snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// The deterministic surface: counters, simulated gauges, and
    /// simulated histograms, one `name value` line each in registry
    /// order. Byte-identical across runs, hosts, and pool widths for the
    /// same simulated work; host-time metrics are excluded.
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("{} {}\n", c.name(), self.counter(c)));
        }
        for g in Gauge::ALL {
            if g.host_side() {
                continue;
            }
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g)));
        }
        for h in Hist::ALL {
            if h.host_time() {
                continue;
            }
            let hist = self.hist(h);
            out.push_str(&format!(
                "{} count={} sum={} min={} max={}\n",
                h.name(),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max()
            ));
        }
        out
    }

    /// Prometheus-style text exposition of the full snapshot (counters,
    /// gauges, and histograms rendered as summaries), every family
    /// prefixed `bulksc_`. This is the format a future `bulksc-serve`
    /// scrape endpoint would return verbatim.
    pub fn to_text_exposition(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("# TYPE bulksc_{} counter\n", c.name()));
            out.push_str(&format!("bulksc_{} {}\n", c.name(), self.counter(c)));
        }
        for g in Gauge::ALL {
            out.push_str(&format!("# TYPE bulksc_{} gauge\n", g.name()));
            out.push_str(&format!("bulksc_{} {}\n", g.name(), self.gauge(g)));
        }
        for h in Hist::ALL {
            let hist = self.hist(h);
            out.push_str(&format!("# TYPE bulksc_{} summary\n", h.name()));
            for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
                out.push_str(&format!(
                    "bulksc_{}{{quantile=\"{q}\"}} {}\n",
                    h.name(),
                    hist.percentile(p)
                ));
            }
            out.push_str(&format!("bulksc_{}_sum {}\n", h.name(), hist.sum()));
            out.push_str(&format!("bulksc_{}_count {}\n", h.name(), hist.count()));
        }
        out
    }
}

static GLOBAL: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);

/// Merge a thread's snapshot into the process-global accumulator (called
/// by pool workers after [`disable`]).
pub fn publish(snap: MetricsSnapshot) {
    let mut global = GLOBAL.lock().unwrap();
    match global.as_mut() {
        Some(g) => g.merge(&snap),
        None => *global = Some(snap),
    }
}

/// Take (and clear) the process-global accumulator.
pub fn take_global() -> MetricsSnapshot {
    GLOBAL.lock().unwrap().take().unwrap_or_default()
}

/// Clear the process-global accumulator (start of a metered sweep).
pub fn reset_global() {
    *GLOBAL.lock().unwrap() = None;
}

pub mod live {
    //! Process-global live progress for sweep heartbeats.
    //!
    //! Unlike the sharded registry, these are relaxed atomics a heartbeat
    //! thread can read while pool workers are mid-job. They carry host
    //! progress (job counts, queue depth) and the per-cause squash
    //! tallies of finished runs, for heartbeat lines only. Activation is
    //! process-wide: the pool only spends atomic operations on live state
    //! when a `--metrics` sweep turned it on.

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static TOTAL: AtomicU64 = AtomicU64::new(0);
    static DONE: AtomicU64 = AtomicU64::new(0);
    static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
    static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
    static QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);
    static PANICKED: AtomicU64 = AtomicU64::new(0);
    static SQUASHES_TRUE: AtomicU64 = AtomicU64::new(0);
    static SQUASHES_ALIAS: AtomicU64 = AtomicU64::new(0);
    static SQUASHES_OVERFLOW: AtomicU64 = AtomicU64::new(0);

    /// Turn live collection on and zero all progress state.
    pub fn activate() {
        reset();
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Turn live collection off (progress state keeps its last values so
    /// a final snapshot can still be taken).
    pub fn deactivate() {
        ACTIVE.store(false, Ordering::SeqCst);
    }

    /// True while a `--metrics` sweep is running.
    #[inline]
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Zero all progress state.
    pub fn reset() {
        for a in [
            &TOTAL,
            &DONE,
            &IN_FLIGHT,
            &QUEUE_DEPTH,
            &QUEUE_PEAK,
            &PANICKED,
            &SQUASHES_TRUE,
            &SQUASHES_ALIAS,
            &SQUASHES_OVERFLOW,
        ] {
            a.store(0, Ordering::SeqCst);
        }
    }

    /// A finished simulated run squashed `n` chunks for `cause`. Runs
    /// report their squashes once, when their `System` is dropped, so the
    /// heartbeat's squash rates move as runs finish. Dropped unless a
    /// `--metrics` sweep is live. Counts here feed heartbeat lines only;
    /// the authoritative totals are the registry counters.
    pub fn add_squashes(cause: bulksc_trace::SquashCause, n: u64) {
        if !is_active() {
            return;
        }
        use bulksc_trace::SquashCause;
        let slot = match cause {
            SquashCause::TrueSharing => &SQUASHES_TRUE,
            SquashCause::Alias => &SQUASHES_ALIAS,
            SquashCause::Overflow => &SQUASHES_OVERFLOW,
        };
        slot.fetch_add(n, Ordering::Relaxed);
    }

    /// A sweep enqueued `n` more jobs.
    pub fn add_total(n: u64) {
        TOTAL.fetch_add(n, Ordering::Relaxed);
        let depth = QUEUE_DEPTH.fetch_add(n, Ordering::Relaxed) + n;
        QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker pulled a job off the queue.
    pub fn job_started() {
        QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
    }

    /// A job ran to completion.
    pub fn job_finished() {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        DONE.fetch_add(1, Ordering::Relaxed);
    }

    /// A job panicked.
    pub fn job_panicked() {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        PANICKED.fetch_add(1, Ordering::Relaxed);
    }

    /// One coherent-enough view of the progress state (fields are read
    /// independently; a heartbeat tolerates a job moving between reads).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LiveSnapshot {
        /// Jobs enqueued so far.
        pub total: u64,
        /// Jobs completed.
        pub done: u64,
        /// Jobs currently executing.
        pub in_flight: u64,
        /// Jobs waiting in the queue.
        pub queue_depth: u64,
        /// Highest queue depth observed.
        pub queue_peak: u64,
        /// Jobs that panicked.
        pub panicked: u64,
        /// Squashes caused by true sharing (simulated, live tally).
        pub squashes_true: u64,
        /// Squashes caused by signature aliasing.
        pub squashes_alias: u64,
        /// Squashes caused by speculative-state overflow.
        pub squashes_overflow: u64,
    }

    /// Read the current progress state.
    pub fn snapshot() -> LiveSnapshot {
        LiveSnapshot {
            total: TOTAL.load(Ordering::Relaxed),
            done: DONE.load(Ordering::Relaxed),
            in_flight: IN_FLIGHT.load(Ordering::Relaxed),
            queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
            queue_peak: QUEUE_PEAK.load(Ordering::Relaxed),
            panicked: PANICKED.load(Ordering::Relaxed),
            squashes_true: SQUASHES_TRUE.load(Ordering::Relaxed),
            squashes_alias: SQUASHES_ALIAS.load(Ordering::Relaxed),
            squashes_overflow: SQUASHES_OVERFLOW.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        assert_eq!(Gauge::ALL.len(), GAUGE_COUNT);
        assert_eq!(Hist::ALL.len(), HIST_COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "counter order matches discriminants");
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
        // Names are unique across all three families (they key the
        // exposition).
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn squash_cause_names_cannot_drift_from_trace_labels() {
        // One source of truth: for every trace-level squash cause, the
        // mapped counter's exposition name must be exactly
        // `sim_squashes_<label>` with the label's dashes folded to
        // underscores. Renaming either side breaks this test.
        for cause in bulksc_trace::SquashCause::ALL {
            let expected = format!("sim_squashes_{}", cause.label().replace('-', "_"));
            assert_eq!(
                Counter::for_squash_cause(cause).name(),
                expected,
                "metric name drifted from trace label for {:?}",
                cause
            );
        }
        // The mapping is injective: three causes, three distinct counters.
        // `dedup` only drops adjacent duplicates, so sort first.
        let mut mapped: Vec<Counter> = bulksc_trace::SquashCause::ALL
            .iter()
            .map(|&c| Counter::for_squash_cause(c))
            .collect();
        mapped.sort_by_key(|&c| c as u8);
        mapped.dedup();
        assert_eq!(mapped.len(), 3);
    }

    /// Serializes tests that touch the process-global live atomics (the
    /// cargo harness runs `#[test]`s concurrently).
    static LIVE_SLOT: Mutex<()> = Mutex::new(());

    #[test]
    fn live_squash_tallies_per_cause_only_while_active() {
        use bulksc_trace::SquashCause;
        let _g = LIVE_SLOT.lock().unwrap_or_else(|p| p.into_inner());
        live::reset();
        assert!(!live::is_active());
        live::add_squashes(SquashCause::Alias, 5); // inactive: dropped
        live::activate();
        live::add_squashes(SquashCause::TrueSharing, 1);
        live::add_squashes(SquashCause::Alias, 2);
        live::add_squashes(SquashCause::Alias, 3);
        live::add_squashes(SquashCause::Overflow, 1);
        let s = live::snapshot();
        assert_eq!(s.squashes_true, 1);
        assert_eq!(s.squashes_alias, 5);
        assert_eq!(s.squashes_overflow, 1);
        live::deactivate();
        live::reset();
        assert_eq!(live::snapshot().squashes_alias, 0);
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        values.iter().for_each(|&v| h.record(v));
        h
    }

    #[test]
    fn disabled_increments_collect_nothing() {
        assert!(!is_enabled());
        inc(Counter::ChunksCommitted);
        gauge_peak(Gauge::FabricDepthPeak, 9);
        observe(Hist::ChunkInstrs, 100);
        merge_hist(Hist::ChunkInstrs, &hist_of(&[7, 8]));
        enable();
        let snap = disable();
        assert!(snap.is_empty(), "increments before enable must not count");
    }

    #[test]
    fn enabled_shard_collects_and_resets() {
        enable();
        inc(Counter::ChunksCommitted);
        add(Counter::InstrsCommitted, 500);
        gauge_peak(Gauge::ArbPendingWPeak, 3);
        gauge_peak(Gauge::ArbPendingWPeak, 2); // below peak: ignored
        observe(Hist::ChunkInstrs, 500);
        merge_hist(Hist::ChunkInstrs, &hist_of(&[100, 900]));
        let snap = disable();
        assert_eq!(snap.counter(Counter::ChunksCommitted), 1);
        assert_eq!(snap.counter(Counter::InstrsCommitted), 500);
        assert_eq!(snap.gauge(Gauge::ArbPendingWPeak), 3);
        let chunks = snap.hist(Hist::ChunkInstrs);
        assert_eq!((chunks.count(), chunks.sum()), (3, 1500));
        assert_eq!((chunks.min(), chunks.max()), (100, 900));
        // Re-enabling starts from a clean shard.
        enable();
        assert!(disable().is_empty());
    }

    #[test]
    fn merge_is_commutative() {
        let shard = |n: u64, peak: u64, obs: u64| {
            enable();
            add(Counter::ArbRequests, n);
            gauge_peak(Gauge::FabricDepthPeak, peak);
            observe(Hist::ChunkInstrs, obs);
            disable()
        };
        let a = shard(10, 4, 100);
        let b = shard(3, 9, 200);
        let c = shard(7, 1, 50);
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc.deterministic_text(), cba.deterministic_text());
        assert_eq!(abc.counter(Counter::ArbRequests), 20);
        assert_eq!(abc.gauge(Gauge::FabricDepthPeak), 9);
        assert_eq!(abc.hist(Hist::ChunkInstrs).count(), 3);
    }

    #[test]
    fn exposition_is_prometheus_shaped() {
        enable();
        inc(Counter::FabricMessages);
        add(Counter::FabricBytes, 64);
        observe(Hist::JobWallNs, 1_000_000);
        let snap = disable();
        let text = snap.to_text_exposition();
        assert!(text.contains("# TYPE bulksc_sim_fabric_messages counter"));
        assert!(text.contains("bulksc_sim_fabric_bytes 64"));
        assert!(text.contains("bulksc_pool_job_wall_ns_count 1"));
        assert!(text.contains("quantile=\"0.5\""));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            assert!(name.starts_with("bulksc_"), "{line}");
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
        // Host-time metrics stay out of the deterministic surface.
        let det = snap.deterministic_text();
        assert!(!det.contains("pool_job_wall_ns"), "{det}");
        assert!(det.contains("sim_fabric_bytes 64"), "{det}");
    }

    #[test]
    fn publish_accumulates_into_the_global() {
        reset_global();
        enable();
        inc(Counter::RunsCompleted);
        publish(disable());
        enable();
        add(Counter::RunsCompleted, 2);
        publish(disable());
        let merged = take_global();
        assert_eq!(merged.counter(Counter::RunsCompleted), 3);
        // take_global drains.
        assert!(take_global().is_empty());
    }

    #[test]
    fn live_progress_tracks_jobs() {
        let _g = LIVE_SLOT.lock().unwrap_or_else(|p| p.into_inner());
        live::activate();
        assert!(live::is_active());
        live::add_total(4);
        live::job_started();
        live::job_started();
        live::job_finished();
        live::job_panicked();
        let s = live::snapshot();
        assert_eq!(s.total, 4);
        assert_eq!(s.done, 1);
        assert_eq!(s.panicked, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_peak, 4);
        live::deactivate();
        assert!(!live::is_active());
        live::reset();
        assert_eq!(live::snapshot().total, 0);
    }
}
