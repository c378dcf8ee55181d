//! Whole-machine integration tests of BulkSC: chunks commit, values flow,
//! synchronization works, SC holds on litmus tests, and forward progress
//! survives adversarial contention.

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_cpu::BaselineModel;
use bulksc_sig::Addr;
use bulksc_workloads::{
    by_name, fuzz_programs, litmus, FuzzSpec, Instr, ScriptOp, ScriptProgram, SyntheticApp,
    ThreadProgram,
};

fn script(ops: Vec<ScriptOp>) -> Box<dyn ThreadProgram> {
    Box::new(ScriptProgram::new(ops))
}

fn idle() -> Box<dyn ThreadProgram> {
    script(vec![ScriptOp::Op(Instr::Compute(1))])
}

fn all_bulk_configs() -> Vec<BulkConfig> {
    vec![
        BulkConfig::bsc_base(),
        BulkConfig::bsc_dypvt(),
        BulkConfig::bsc_stpvt(),
        BulkConfig::bsc_exact(),
    ]
}

fn sys2(b: BulkConfig, t0: Box<dyn ThreadProgram>, t1: Box<dyn ThreadProgram>) -> System {
    let mut cfg = SystemConfig::cmp8(Model::Bulk(b));
    cfg.cores = 2;
    cfg.budget = u64::MAX;
    System::new(cfg, vec![t0, t1])
}

fn run_or_dump(sys: &mut System, max: u64, what: &str) {
    if !sys.run(max) {
        panic!("{what} did not finish:\n{}", sys.debug_state());
    }
}

#[test]
fn single_core_chunked_execution_commits() {
    for b in all_bulk_configs() {
        let name = Model::Bulk(b.clone()).name();
        let t0 = script(vec![
            ScriptOp::Op(Instr::Compute(50)),
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0000),
                value: 7,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0008),
                value: 8,
            }),
            ScriptOp::Record(Addr(0x100_0000)),
        ]);
        let mut sys = sys2(b, t0, idle());
        run_or_dump(&mut sys, 1_000_000, &name);
        assert_eq!(sys.values().read(Addr(0x100_0000)), 7, "{name}");
        assert_eq!(sys.values().read(Addr(0x100_0008)), 8, "{name}");
        assert_eq!(
            sys.observations()[0],
            vec![7],
            "{name}: own store forwarded"
        );
        let r = SimReport::collect(&sys);
        assert!(r.chunks_committed >= 1, "{name}");
    }
}

#[test]
fn values_flow_between_bulk_cores() {
    for b in all_bulk_configs() {
        let name = Model::Bulk(b.clone()).name();
        let t0 = script(vec![
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0000),
                value: 55,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0040),
                value: 1,
            }),
        ]);
        let t1 = script(vec![
            ScriptOp::SpinUntilEq {
                addr: Addr(0x100_0040),
                value: 1,
                pad: 8,
            },
            ScriptOp::Record(Addr(0x100_0000)),
        ]);
        let mut sys = sys2(b, t0, t1);
        run_or_dump(&mut sys, 5_000_000, &name);
        // Chunk atomicity: the flag and the data commit together (same
        // chunk), so seeing the flag means seeing the data.
        assert_eq!(sys.observations()[1], vec![55], "{name}");
    }
}

#[test]
fn bulk_is_sequentially_consistent_on_litmus() {
    for b in [
        BulkConfig::bsc_base(),
        BulkConfig::bsc_dypvt(),
        BulkConfig::bsc_exact(),
    ] {
        let name = Model::Bulk(b.clone()).name();
        for test in litmus::catalog() {
            for skew in 0..10u32 {
                let skews: Vec<u32> = (0..test.threads())
                    .map(|t| (skew * 13 + t as u32 * 7) % 31)
                    .collect();
                let mut cfg = SystemConfig::cmp8(Model::Bulk(b.clone()));
                cfg.cores = test.threads() as u32;
                cfg.budget = u64::MAX;
                let mut sys = System::new(cfg, test.programs(&skews));
                run_or_dump(&mut sys, 5_000_000, &format!("{name}/{}", test.name));
                let obs = sys.observations();
                assert!(
                    !(test.forbidden)(&obs),
                    "{name}/{}: forbidden outcome {obs:?} (skew {skew})",
                    test.name
                );
            }
        }
    }
}

#[test]
fn locks_serialize_under_bulk() {
    let lock = Addr(0x10_0000);
    let counter = Addr(0x100_0000);
    let incr = |tag: u64| {
        script(vec![
            ScriptOp::AcquireLock(lock),
            ScriptOp::Record(counter),
            ScriptOp::Op(Instr::Store {
                addr: counter,
                value: tag,
            }),
            ScriptOp::ReleaseLock(lock),
        ])
    };
    for b in all_bulk_configs() {
        let name = Model::Bulk(b.clone()).name();
        let mut sys = sys2(b, incr(1), incr(2));
        run_or_dump(&mut sys, 10_000_000, &name);
        let obs = sys.observations();
        let (a, bb) = (obs[0][0], obs[1][0]);
        assert!(
            (a == 0 && bb == 1) || (bb == 0 && a == 2),
            "{name}: critical sections interleaved: {a} {bb}"
        );
        assert_eq!(sys.values().read(lock), 0, "{name}: lock released");
    }
}

#[test]
fn adversarial_spin_makes_progress() {
    // §3.3's worst case: spinning processors whose spin loop *writes* a
    // variable the key processor reads. Chunk-size backoff plus
    // pre-arbitration must guarantee the key processor completes.
    let flag = Addr(0x100_0000);
    let noise = Addr(0x100_0004); // same line as flag: maximum collision
    let key = script(vec![
        ScriptOp::Op(Instr::Compute(200)),
        ScriptOp::Record(noise),
        ScriptOp::Op(Instr::Store {
            addr: flag,
            value: 1,
        }),
    ]);
    let spinner = || {
        let mut ops = Vec::new();
        for i in 0..3000u64 {
            ops.push(ScriptOp::Op(Instr::Store {
                addr: noise,
                value: i,
            }));
            ops.push(ScriptOp::Op(Instr::Load {
                addr: flag,
                consume: false,
            }));
            ops.push(ScriptOp::Op(Instr::Compute(4)));
        }
        script(ops)
    };
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
    cfg.cores = 3;
    cfg.budget = u64::MAX;
    let mut sys = System::new(cfg, vec![key, spinner(), spinner()]);
    run_or_dump(&mut sys, 20_000_000, "adversarial spin");
    assert_eq!(sys.values().read(flag), 1, "key processor completed");
}

#[test]
fn synthetic_apps_run_on_all_configs() {
    for b in all_bulk_configs() {
        let name = Model::Bulk(b.clone()).name();
        let app = by_name("radiosity").unwrap();
        let mut cfg = SystemConfig::cmp8(Model::Bulk(b));
        cfg.budget = 6_000;
        let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
            .map(|t| Box::new(SyntheticApp::new(app, t, 8, 7)) as Box<dyn ThreadProgram>)
            .collect();
        let mut sys = System::new(cfg, programs);
        run_or_dump(&mut sys, 30_000_000, &name);
        let r = SimReport::collect(&sys);
        assert!(r.chunks_committed >= 8, "{name}: {r:?}");
        assert!(r.retired >= 8 * 6_000, "{name}");
    }
}

#[test]
fn baselines_run_through_the_system_wrapper() {
    for m in [
        BaselineModel::Sc,
        BaselineModel::Tso,
        BaselineModel::Rc,
        BaselineModel::Scpp,
    ] {
        let app = by_name("lu").unwrap();
        let mut cfg = SystemConfig::cmp8(Model::Baseline(m));
        cfg.budget = 4_000;
        let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
            .map(|t| Box::new(SyntheticApp::new(app, t, 8, 7)) as Box<dyn ThreadProgram>)
            .collect();
        let mut sys = System::new(cfg, programs);
        run_or_dump(&mut sys, 30_000_000, &format!("{m:?}"));
        let r = SimReport::collect(&sys);
        assert!(r.retired >= 8 * 4_000, "{m:?}");
        assert!(r.cycles > 0);
    }
}

#[test]
fn distributed_arbiter_commits_multi_range_chunks() {
    let b = BulkConfig::bsc_dypvt().with_arbiters(4);
    let mut cfg = SystemConfig::cmp8(Model::Bulk(b));
    cfg.cores = 4;
    cfg.dirs = 4;
    cfg.budget = u64::MAX;
    // Each thread writes lines across several ranges, then reads another
    // thread's output after a flag.
    let writer = |base: u64| {
        script(vec![
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0000 + base * 4),
                value: base + 1,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0020 + base * 4),
                value: base + 2,
            }),
            ScriptOp::Op(Instr::Store {
                addr: Addr(0x100_0040 + base * 4),
                value: base + 3,
            }),
        ])
    };
    let programs: Vec<Box<dyn ThreadProgram>> = (0..4).map(|i| writer(i as u64 * 64)).collect();
    let mut sys = System::new(cfg, programs);
    run_or_dump(&mut sys, 5_000_000, "distributed arbiter");
    for i in 0..4u64 {
        assert_eq!(sys.values().read(Addr(0x100_0000 + i * 64 * 4)), i * 64 + 1);
    }
    let r = SimReport::collect(&sys);
    assert!(r.chunks_committed >= 4);
}

#[test]
fn io_serializes_against_chunks() {
    let t0 = script(vec![
        ScriptOp::Op(Instr::Store {
            addr: Addr(0x100_0000),
            value: 1,
        }),
        ScriptOp::Op(Instr::Io),
        ScriptOp::Op(Instr::Store {
            addr: Addr(0x100_0040),
            value: 2,
        }),
    ]);
    let mut sys = sys2(BulkConfig::bsc_dypvt(), t0, idle());
    run_or_dump(&mut sys, 2_000_000, "io");
    assert_eq!(sys.values().read(Addr(0x100_0040)), 2);
    let io_ops: u64 = sys
        .nodes()
        .iter()
        .filter_map(|n| n.bulk_stats())
        .map(|s| s.io_ops)
        .sum();
    assert_eq!(io_ops, 1);
}

#[test]
fn rsig_optimization_reduces_rdsig_traffic() {
    use bulksc_net::TrafficClass;
    let app = by_name("ocean").unwrap();
    let run = |b: BulkConfig| {
        let mut cfg = SystemConfig::cmp8(Model::Bulk(b));
        cfg.budget = 8_000;
        let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
            .map(|t| Box::new(SyntheticApp::new(app, t, 8, 3)) as Box<dyn ThreadProgram>)
            .collect();
        let mut sys = System::new(cfg, programs);
        assert!(sys.run(50_000_000), "run finished");
        SimReport::collect(&sys)
    };
    let with = run(BulkConfig::bsc_dypvt());
    let without = run(BulkConfig::bsc_dypvt().without_rsig());
    assert!(
        with.traffic_bytes(TrafficClass::RdSig) < without.traffic_bytes(TrafficClass::RdSig),
        "RSig opt must cut RdSig bytes: {} vs {}",
        with.traffic_bytes(TrafficClass::RdSig),
        without.traffic_bytes(TrafficClass::RdSig)
    );
}

#[test]
fn report_has_sane_table_metrics() {
    let app = by_name("fft").unwrap();
    let mut cfg = SystemConfig::cmp8(Model::Bulk(BulkConfig::bsc_dypvt()));
    cfg.budget = 10_000;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
        .map(|t| Box::new(SyntheticApp::new(app, t, 8, 11)) as Box<dyn ThreadProgram>)
        .collect();
    let mut sys = System::new(cfg, programs);
    run_or_dump(&mut sys, 50_000_000, "fft report");
    let r = SimReport::collect(&sys);
    assert!(r.finished);
    assert!(r.read_set > 1.0, "fft reads shared data: {r:?}");
    assert!(r.priv_write_set > 1.0, "fft rewrites private lines");
    assert!(r.empty_w_pct <= 100.0);
    assert!(r.traffic.total() > 0);
}

/// Fast-forward must skip the cycles a core spends waiting on memory: a
/// chain of dependent loads, each a cold miss, ticks the cores on only a
/// small share of the run's cycles. A wakeup that degenerated to "every
/// cycle" would still pass every other test, only slower. Fast-forward
/// still stops at every interval-sample boundary.
#[test]
fn fast_forward_skips_memory_waits() {
    for model in [
        Model::Bulk(BulkConfig::bsc_dypvt()),
        Model::Baseline(BaselineModel::Sc),
    ] {
        let name = model.name();
        let chain = (0..40)
            .map(|i| ScriptOp::Record(Addr(0x200_0000 + i * 4096)))
            .collect();
        let mut cfg = SystemConfig::cmp8(model);
        cfg.cores = 2;
        cfg.budget = u64::MAX;
        let mut sys = System::new(cfg, vec![script(chain), idle()]);
        sys.enable_sampling(1000);
        bulksc_prof::enable();
        let finished = sys.run(10_000_000);
        let prof = bulksc_prof::disable();
        assert!(finished, "{name} did not finish:\n{}", sys.debug_state());
        let cycles = SimReport::collect(&sys).cycles;
        let ticks = prof
            .phase(bulksc_prof::Phase::Execute)
            .map_or(0, |p| p.count);
        assert!(
            ticks * 4 < cycles,
            "{name}: {ticks} core ticks and handles over {cycles} cycles"
        );
        let samples: Vec<u64> = sys.samples().iter().map(|s| s.cycle).collect();
        assert_eq!(samples.len() as u64, cycles / 1000, "{name}");
        assert!(samples.iter().all(|c| c % 1000 == 0), "{name}: {samples:?}");
    }
}

/// Fast-forward must not change what happens: a run that skips idle
/// cycles and one that steps every cycle are the same run. Fuzz programs
/// on four cores leave stretches in which every core waits, so a wakeup
/// that lands even one cycle late shows up as a different report. (RC is
/// left out: it livelocks on fuzz seed 3 either way, a defect of its own.)
#[test]
fn fast_forward_matches_stepping_every_cycle() {
    for model in [
        Model::Baseline(BaselineModel::Sc),
        Model::Baseline(BaselineModel::Tso),
        Model::Bulk(BulkConfig::bsc_base()),
        Model::Bulk(BulkConfig::bsc_dypvt().with_chunk_size(64)),
    ] {
        for seed in 0..12 {
            let name = format!("{} seed {seed}", model.name());
            let build = || {
                let mut cfg = SystemConfig::cmp8(model.clone());
                cfg.cores = FuzzSpec::default().threads;
                cfg.budget = u64::MAX;
                System::new(cfg, fuzz_programs(FuzzSpec::default(), seed))
            };
            let mut skipping = build();
            run_or_dump(&mut skipping, 1_000_000, &name);
            let mut stepping = build();
            while !stepping.finished() && stepping.cycles() < 1_000_000 {
                stepping.step();
            }
            assert_eq!(
                format!("{:?}", SimReport::collect(&skipping)),
                format!("{:?}", SimReport::collect(&stepping)),
                "{name}"
            );
            assert_eq!(skipping.observations(), stepping.observations(), "{name}");
        }
    }
}

#[test]
fn stall_diagnostics_are_deterministic() {
    for model in [
        Model::Baseline(BaselineModel::Rc),
        Model::Bulk(BulkConfig::bsc_dypvt()),
    ] {
        let build = || {
            let app = by_name("ocean").unwrap();
            let mut cfg = SystemConfig::cmp8(model.clone());
            cfg.budget = 4_000;
            let programs: Vec<Box<dyn ThreadProgram>> = (0..8)
                .map(|t| Box::new(SyntheticApp::new(app, t, 8, 7)) as Box<dyn ThreadProgram>)
                .collect();
            System::new(cfg, programs)
        };
        let (mut a, mut b) = (build(), build());
        // Cycles on which some core listed at least two outstanding misses.
        let mut multi_miss = 0;
        for _ in 0..3_000 {
            a.step();
            b.step();
            let state = a.debug_state();
            assert_eq!(state, b.debug_state(), "{}", model.name());
            if state.lines().any(|l| l.matches("sent=").count() >= 2) {
                multi_miss += 1;
            }
        }
        assert!(multi_miss > 0, "{}: never two misses at once", model.name());
    }
}
