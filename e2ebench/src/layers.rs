//! Per-layer accounting for the traced run.

use std::collections::BTreeMap;

use bulksc::{SimReport, System};
use bulksc_prof::{Phase, ProfReport};

use crate::stats::ratio;
use crate::Metric;

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Every per-layer metric the traced run prints, in print order. A name
/// ending in `_s` is host self time of one traced pass; the rest are
/// counts or ratios of that pass. `e2ebench/README.md` says which
/// end-to-end metric each should move, and where it should not.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.gen_s", "s", "lower"),
    m("workloads.refexec_s", "s", "lower"),
    m("core.new_s", "s", "lower"),
    m("core.run_s", "s", "lower"),
    m("core.ns_per_cycle", "ns/cycle", "lower"),
    m("core.collect_s", "s", "lower"),
    m("core.step_loop_s", "s", "lower"),
    m("core.node_s", "s", "lower"),
    m("core.arbiter_s", "s", "lower"),
    m("core.cycles", "cycles", "lower"),
    m("core.retired", "instrs", "higher"),
    m("core.squashed_instrs", "instrs", "lower"),
    m("core.useful_ratio", "ratio", "higher"),
    m("core.chunks_committed", "count", "higher"),
    m("core.arb_requests", "count", "lower"),
    m("core.grant_ratio", "ratio", "higher"),
    m("cpu.node_s", "s", "lower"),
    m("sig.ops_s", "s", "lower"),
    m("sig.alias_squashes", "count", "lower"),
    m("mem.directory_s", "s", "lower"),
    m("mem.lookups_per_commit", "count", "lower"),
    m("net.fabric_s", "s", "lower"),
    m("net.messages", "count", "lower"),
    m("net.bytes", "B", "lower"),
    m("trace.record_s", "s", "lower"),
    m("trace.emit_s", "s", "lower"),
    m("trace.finish_s", "s", "lower"),
    m("trace.events", "count", "lower"),
    m("trace.bytes_per_event", "B/event", "lower"),
    m("check.decode_s", "s", "lower"),
    m("check.classify_s", "s", "lower"),
    m("check.push_s", "s", "lower"),
    m("check.finish_s", "s", "lower"),
    m("check.ns_per_access", "ns/access", "lower"),
    m("check.windows", "count", "lower"),
    m("check.peak_live", "count", "lower"),
    m("check.witness_edges", "count", "lower"),
    m("check.ambiguous_reads", "count", "lower"),
    m("check.verify_s", "s", "lower"),
    m("check.oracle_kaps", "kaccess/s", "higher"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.fail_ratio", "ratio", "lower"),
];

/// Sums over one traced pass, keyed by metric name. Besides the printed
/// names it holds the raw totals the derived ratios need
/// (`mem.lookups`, `trace.bytes`, `check.accesses`, `check.verified`).
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Add `value` to the running total of `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Charge a profile's phase self-times to the layers `System::run`
    /// hides. `Execute` belongs to the core kind that ran it.
    pub fn add_prof(&mut self, prof: &ProfReport, bulk: bool) {
        for p in &prof.phases {
            let metric = match p.phase {
                Phase::Run => "core.step_loop_s",
                Phase::Execute if bulk => "core.node_s",
                Phase::Execute => "cpu.node_s",
                Phase::SigOps => "sig.ops_s",
                Phase::Arbiter => "core.arbiter_s",
                Phase::Directory => "mem.directory_s",
                Phase::Fabric => "net.fabric_s",
                Phase::TraceEmit => "trace.emit_s",
                _ => continue,
            };
            self.add(metric, p.self_ns as f64 / 1e9);
        }
    }

    /// Add one run's exact counts.
    pub fn add_report(&mut self, r: &SimReport, sys: &System) {
        self.add("core.cycles", r.cycles as f64);
        self.add("core.retired", r.retired as f64);
        self.add("core.squashed_instrs", r.squashed_instrs as f64);
        self.add("core.chunks_committed", r.chunks_committed as f64);
        self.add("core.arb_requests", r.arb_requests as f64);
        self.add("sig.alias_squashes", r.alias_squashes as f64);
        let lookups: u64 = sys.dir_stats().iter().map(|d| d.lookups).sum();
        self.add("mem.lookups", lookups as f64);
        self.add("net.messages", r.traffic.messages() as f64);
        self.add("net.bytes", r.traffic.total() as f64);
    }

    /// The printed metrics of this pass (all of [`PER_LAYER`] except the
    /// two `bench.` ratios, which span passes).
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let oracle_s = [
            "check.decode_s",
            "check.classify_s",
            "check.push_s",
            "check.finish_s",
        ]
        .iter()
        .map(|k| self.get(k))
        .sum::<f64>();
        let retired = self.get("core.retired");
        let derived = [
            (
                "core.ns_per_cycle",
                ratio(self.get("core.run_s") * 1e9, self.get("core.cycles")),
            ),
            (
                "core.useful_ratio",
                ratio(retired, retired + self.get("core.squashed_instrs")),
            ),
            (
                "core.grant_ratio",
                ratio(
                    self.get("core.chunks_committed"),
                    self.get("core.arb_requests"),
                ),
            ),
            (
                "mem.lookups_per_commit",
                ratio(self.get("mem.lookups"), self.get("core.chunks_committed")),
            ),
            (
                "trace.bytes_per_event",
                ratio(self.get("trace.bytes"), self.get("trace.events")),
            ),
            // The profiler's emit scope encloses the sink's record call.
            (
                "trace.emit_s",
                (self.get("trace.emit_s") - self.get("trace.record_s")).max(0.0),
            ),
            (
                "check.ns_per_access",
                ratio(oracle_s * 1e9, self.get("check.accesses")),
            ),
            (
                "check.oracle_kaps",
                ratio(
                    self.get("check.accesses") + self.get("check.verified"),
                    (oracle_s + self.get("check.verify_s")) * 1e3,
                ),
            ),
        ];
        let mut out: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .filter(|m| !m.name.starts_with("bench."))
            .map(|m| (m.name, self.get(m.name)))
            .collect();
        out.extend(derived);
        out
    }
}
