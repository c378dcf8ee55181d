//! Edge configurations of the BulkSC core's per-cycle fast paths.
//!
//! `BulkNode::issue` resumes at an issue cursor instead of rescanning the
//! window, and "the front chunk still has slots in the window" is answered
//! by the head slot's chunk tag alone. In a debug build every cycle
//! cross-checks both against a full window scan (and panics, naming the
//! core and slot, if they disagree). These runs drive that check through
//! the extremes: an issue window of one instruction, an issue window wider
//! than the whole instruction window, and 16-instruction chunks (many
//! chunks in flight, many squashes and suffix squashes), each under
//! BSCbase, BSCdypvt and BSCexact. Every run must finish and its value
//! trace must certify under the SC oracle.

use bulksc::{BulkConfig, Model, System, SystemConfig};
use bulksc_check::CollectingTracer;
use bulksc_sig::Addr;
use bulksc_trace::TraceHandle;
use bulksc_workloads::{by_name, Instr, ScriptOp, ScriptProgram, SyntheticApp, ThreadProgram};

/// Dynamic instructions each core runs (debug builds are slow, and the
/// per-cycle invariant check scans the window).
const BUDGET: u64 = 4_000;

fn presets() -> Vec<BulkConfig> {
    vec![
        BulkConfig::bsc_base(),
        BulkConfig::bsc_dypvt(),
        BulkConfig::bsc_exact(),
    ]
}

/// A configuration name and the system configuration it makes of `b`.
fn edges(b: &BulkConfig) -> Vec<(&'static str, SystemConfig)> {
    let base = || {
        let mut cfg = SystemConfig::cmp8(Model::Bulk(b.clone()));
        cfg.budget = BUDGET;
        cfg
    };
    let mut narrow = base();
    narrow.core.issue_window = 1;
    let mut wide = base();
    wide.core.issue_window = 2 * wide.core.window_size;
    let mut small_chunks = base();
    small_chunks.model = Model::Bulk(b.clone().with_chunk_size(16));
    vec![
        ("issue_window=1", narrow),
        ("issue_window=2*window_size", wide),
        ("chunk_size=16", small_chunks),
    ]
}

/// Per-core programs: a conflict-heavy synthetic app on most cores, and
/// on core 0 a script that mixes I/O (which retires only once its chunk
/// is the oldest) with stores and consuming loads to shared words.
fn programs(app: &str, cores: u32) -> Vec<Box<dyn ThreadProgram>> {
    let params = by_name(app).expect("catalog app");
    let mut progs: Vec<Box<dyn ThreadProgram>> = (0..cores)
        .map(|t| Box::new(SyntheticApp::new(params, t, cores, 7)) as Box<dyn ThreadProgram>)
        .collect();
    let a = Addr(0x100_0000);
    let b = Addr(0x100_0040);
    let mut ops = Vec::new();
    for i in 0..12u64 {
        ops.push(ScriptOp::Op(Instr::Store { addr: a, value: i }));
        ops.push(ScriptOp::Op(Instr::Compute(3)));
        ops.push(ScriptOp::Op(Instr::Load {
            addr: b,
            consume: true,
        }));
        if i % 3 == 0 {
            ops.push(ScriptOp::Op(Instr::Io));
        }
        ops.push(ScriptOp::Op(Instr::Store {
            addr: b,
            value: 100 + i,
        }));
    }
    progs[0] = Box::new(ScriptProgram::new(ops));
    progs
}

#[test]
fn edge_configurations_finish_and_certify() {
    for preset in presets() {
        for (edge, cfg) in edges(&preset) {
            for app in ["radix", "ocean"] {
                let what = format!("{} {edge} {app}", cfg.model.name());
                let mut sys = System::new(cfg.clone(), programs(app, cfg.cores));
                let tracer = CollectingTracer::shared();
                let mut trace = TraceHandle::off();
                trace.attach(tracer.clone());
                sys.set_tracer(trace);
                assert!(
                    sys.run(20_000_000),
                    "{what} did not finish:\n{}",
                    sys.debug_state()
                );
                let t = tracer.borrow_mut().take();
                assert!(!t.accesses.is_empty(), "{what}: empty value trace");
                if let Err(e) = t.verify() {
                    panic!("{what}: oracle rejected the run:\n{e}");
                }
            }
        }
    }
}
