//! The four workloads, their operations ("cases"), and the untraced and
//! traced ways of running one case.
//!
//! Every case is built and run through the workspace crates' public API
//! only. The untraced path is what the end-to-end metrics time; the
//! traced path runs the same case with `bulksc-prof` on and a clock
//! around each call into a layer, filling [`Layers`].

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use bulksc::{BulkConfig, Model, SimReport, System, SystemConfig};
use bulksc_bench::fuzz::{self, SweepEntry};
use bulksc_check::{
    check_btf_reader, classify_event, CollectingTracer, MemoryModel, StreamChecker, StreamConfig,
    TraceLine,
};
use bulksc_cpu::BaselineModel;
use bulksc_sig::Addr;
use bulksc_trace::{BtfReader, BtfTracer, Event, TraceHandle, Tracer};
use bulksc_workloads::{
    by_name, fuzz_programs, run_in_order, AppParams, FuzzSpec, SyntheticApp, ThreadProgram,
};

use crate::layers::Layers;

/// Instructions per core in every simulated run of the `*_sim` and
/// `certify` workloads.
pub const BUDGET: u64 = 50_000;

/// Streaming-oracle window of the `certify` workload: large enough that
/// the live frontier is big, small enough that a run seals several
/// windows.
pub const WINDOW: usize = 65_536;

/// Fuzz seeds per pass; each seed runs the whole default sweep.
pub const FUZZ_SEEDS: u64 = 20;

/// Cycle cap for an app run: far beyond any finishing run, so hitting it
/// means the run livelocked.
const MAX_CYCLES: u64 = 500_000_000;

/// The cycle cap `fuzz::run_traced` uses.
const FUZZ_MAX_CYCLES: u64 = 50_000_000;

/// The apps every simulating workload runs: `ocean` (the perf harness's
/// pinned app), `radix` (conflict-heavy: many squashes) and `sjbb2k`
/// (large working set).
pub const APPS: [&str; 3] = ["ocean", "radix", "sjbb2k"];

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The three apps under BSCdypvt, untraced.
    BulkSim,
    /// The three apps under RC, TSO and SC, untraced.
    BaselineSim,
    /// `ocean` under BSCdypvt traced into BTF, then certified.
    Certify,
    /// `fuzz::certify_case` over the default sweep.
    Fuzz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkSim,
        Workload::BaselineSim,
        Workload::Certify,
        Workload::Fuzz,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkSim => "bulk_sim",
            Workload::BaselineSim => "baseline_sim",
            Workload::Certify => "certify",
            Workload::Fuzz => "fuzz",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One operation of a workload.
pub enum Case {
    /// Simulate `app` under `model` on the 8-core CMP, untraced.
    Sim { app: AppParams, model: Model },
    /// Simulate `app` under `model` traced into an in-memory BTF
    /// artifact, then certify the artifact with the streaming oracle.
    Certify { app: AppParams, model: Model },
    /// One `fuzz::certify_case` call.
    Fuzz { entry: SweepEntry, seed: u64 },
}

/// What one execution of a case did. Times are host seconds.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The operation as a user runs it (excluding program generation and
    /// `System::new`, except inside `certify_case`, which does both).
    pub secs: f64,
    /// Of which in `System::run` (0 where the call hides it).
    pub run_secs: f64,
    /// Simulated cycles (0 where the call hides it).
    pub cycles: u64,
    /// Retired instructions (0 where the call hides it).
    pub retired: u64,
    /// Accesses the oracle certified.
    pub accesses: u64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    fn failed(error: String) -> Outcome {
        Outcome {
            error: Some(error),
            ..Outcome::default()
        }
    }
}

/// Run `op`, turning a panic (a failed assertion inside the program)
/// into a failed outcome rather than ending the benchmark.
fn guard(what: &str, op: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        Outcome::failed(format!("{what}: {msg}"))
    })
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A workload instantiated for one seed.
pub struct Suite {
    /// The seed every input derives from.
    seed: u64,
    /// Program shape of the fuzz cases.
    spec: FuzzSpec,
    /// The operations of one pass, in execution order.
    pub cases: Vec<Case>,
}

fn app(name: &str) -> AppParams {
    by_name(name).expect("the benchmark names catalog apps")
}

impl Suite {
    /// The cases of `workload` with inputs derived from `seed`. Fuzz
    /// passes cover seeds `seed * FUZZ_SEEDS ..` so that distinct
    /// benchmark seeds give disjoint fuzz seed ranges.
    pub fn new(workload: Workload, seed: u64) -> Suite {
        let bulk = || Model::Bulk(BulkConfig::bsc_dypvt());
        let cases = match workload {
            Workload::BulkSim => APPS
                .iter()
                .map(|a| Case::Sim {
                    app: app(a),
                    model: bulk(),
                })
                .collect(),
            Workload::BaselineSim => APPS
                .iter()
                .flat_map(|a| {
                    [BaselineModel::Rc, BaselineModel::Tso, BaselineModel::Sc].map(|m| Case::Sim {
                        app: app(a),
                        model: Model::Baseline(m),
                    })
                })
                .collect(),
            Workload::Certify => vec![Case::Certify {
                app: app("ocean"),
                model: bulk(),
            }],
            Workload::Fuzz => {
                let first = seed.wrapping_mul(FUZZ_SEEDS);
                (0..FUZZ_SEEDS)
                    .flat_map(|i| {
                        fuzz::sweep().into_iter().map(move |entry| Case::Fuzz {
                            entry,
                            seed: first.wrapping_add(i),
                        })
                    })
                    .collect()
            }
        };
        Suite {
            seed,
            spec: FuzzSpec::default(),
            cases,
        }
    }

    fn app_system(&self, app: AppParams, model: &Model) -> System {
        let cfg = app_config(model);
        let programs = self.app_programs(app, cfg.cores);
        System::new(cfg, programs)
    }

    fn app_programs(&self, app: AppParams, cores: u32) -> Vec<Box<dyn ThreadProgram>> {
        (0..cores)
            .map(|t| {
                Box::new(SyntheticApp::new(app, t, cores, self.seed)) as Box<dyn ThreadProgram>
            })
            .collect()
    }

    /// Host seconds to generate the programs of one pass and build its
    /// systems with `System::new` — the set-up every pass pays before
    /// its timed work.
    pub fn setup(&self) -> f64 {
        let t = Instant::now();
        for case in &self.cases {
            let sys = match case {
                Case::Sim { app, model } | Case::Certify { app, model } => {
                    self.app_system(*app, model)
                }
                Case::Fuzz { entry, seed } => System::new(
                    fuzz_config(entry, self.spec),
                    fuzz_programs(self.spec, *seed),
                ),
            };
            std::hint::black_box(&sys);
        }
        secs_since(t)
    }

    /// Run one case as a user would, untraced and unprofiled. With
    /// `audit`, also check (untimed) that the certificate counts every
    /// value event of the trace.
    pub fn run_case(&self, case: &Case, audit: bool) -> Outcome {
        match case {
            Case::Sim { app, model } => guard(app.name, || {
                let mut sys = self.app_system(*app, model);
                let t0 = Instant::now();
                let finished = sys.run(MAX_CYCLES);
                let run_secs = secs_since(t0);
                let report = SimReport::collect(&sys);
                let secs = secs_since(t0);
                Outcome {
                    secs,
                    run_secs,
                    cycles: report.cycles,
                    retired: report.retired,
                    error: (!finished).then(|| unfinished(app.name, model)),
                    ..Outcome::default()
                }
            }),
            Case::Certify { app, model } => guard(app.name, || {
                let mut sys = self.app_system(*app, model);
                let sink = BtfTracer::shared();
                sys.set_tracer(handle(sink.clone()));
                let t0 = Instant::now();
                let finished = sys.run(MAX_CYCLES);
                let run_secs = secs_since(t0);
                let report = SimReport::collect(&sys);
                let bytes = sink.borrow_mut().finish_bytes();
                let verdict = check_btf_reader(&bytes[..], app.name, certify_config());
                let secs = secs_since(t0);
                let mut out = Outcome {
                    secs,
                    run_secs,
                    cycles: report.cycles,
                    retired: report.retired,
                    ..Outcome::default()
                };
                out.error = match verdict {
                    _ if !finished => Some(unfinished(app.name, model)),
                    Err(e) => Some(format!("{}: certificate refused: {e}", app.name)),
                    Ok(cert) => {
                        out.accesses = cert.accesses as u64;
                        let events = if audit {
                            value_events(&bytes)
                        } else {
                            Ok(out.accesses)
                        };
                        match events {
                            Err(e) => Some(format!("{}: trace does not decode: {e}", app.name)),
                            Ok(n) if n != out.accesses => Some(format!(
                                "{}: certificate counts {} accesses but the trace holds {n} \
                                 value events",
                                app.name, out.accesses
                            )),
                            Ok(_) => None,
                        }
                    }
                };
                out
            }),
            Case::Fuzz { entry, seed } => guard(entry.name, || {
                let t0 = Instant::now();
                let verdict = fuzz::certify_case(entry, self.spec, *seed, false);
                let secs = secs_since(t0);
                match verdict {
                    Ok(stats) => Outcome {
                        secs,
                        accesses: stats.accesses as u64,
                        ..Outcome::default()
                    },
                    Err(report) => Outcome {
                        secs,
                        ..Outcome::failed(report)
                    },
                }
            }),
        }
    }

    /// The simulated cycles and retired instructions of a fuzz case,
    /// which `certify_case` does not report: the same run through
    /// `fuzz::run_traced`, the function `certify_case` simulates with.
    pub fn fuzz_reference(&self, entry: &SweepEntry, seed: u64) -> Outcome {
        guard(entry.name, || {
            let (_, sys) = fuzz::run_traced(entry, self.spec, seed);
            let report = SimReport::collect(&sys);
            Outcome {
                cycles: report.cycles,
                retired: report.retired,
                ..Outcome::default()
            }
        })
    }

    /// Run one case with every layer timed into `layers`. `secs` covers
    /// the same work as [`Suite::run_case`]'s, so the ratio of the two is
    /// the tracing overhead.
    pub fn trace_case(&self, case: &Case, layers: &mut Layers) -> Outcome {
        match case {
            Case::Sim { app, model } => guard(app.name, || {
                let (sys, mut out) = self.trace_sim(*app, model, TraceHandle::off(), layers);
                out.error = (!sys.finished()).then(|| unfinished(app.name, model));
                out
            }),
            Case::Certify { app, model } => {
                guard(app.name, || self.trace_certify(*app, model, layers))
            }
            Case::Fuzz { entry, seed } => {
                guard(entry.name, || self.trace_fuzz(entry, *seed, layers))
            }
        }
    }

    /// Generate, build, run and collect one app system with the profiler
    /// on and `trace` as its tracer.
    fn trace_sim(
        &self,
        app: AppParams,
        model: &Model,
        trace: TraceHandle,
        layers: &mut Layers,
    ) -> (System, Outcome) {
        let cfg = app_config(model);
        let t = Instant::now();
        let programs = self.app_programs(app, cfg.cores);
        layers.add("workloads.gen_s", secs_since(t));
        let (sys, report, out) = simulate(cfg, programs, trace, MAX_CYCLES, layers);
        layers.add_report(&report, &sys);
        (sys, out)
    }

    fn trace_certify(&self, app: AppParams, model: &Model, layers: &mut Layers) -> Outcome {
        let sink = Rc::new(RefCell::new(TimedSink::default()));
        let (sys, mut out) = self.trace_sim(app, model, handle(sink.clone()), layers);
        let t0 = Instant::now();
        let mut sink = sink.borrow_mut();
        layers.add("trace.record_s", sink.record_secs);
        layers.add("trace.events", sink.inner.events() as f64);
        let bytes = sink.inner.finish_bytes();
        layers.add("trace.finish_s", secs_since(t0));
        layers.add("trace.bytes", bytes.len() as f64);
        let verdict = drive_oracle(&bytes, layers);
        out.secs += secs_since(t0);
        out.error = match verdict {
            _ if !sys.finished() => Some(unfinished(app.name, model)),
            Err(e) => Some(format!("{}: {e}", app.name)),
            Ok((accesses, events)) if accesses != events => Some(format!(
                "{}: certificate counts {accesses} accesses but the trace holds {events} \
                 value events",
                app.name
            )),
            Ok((accesses, _)) => {
                out.accesses = accesses;
                None
            }
        };
        out
    }

    /// `fuzz::certify_case`'s steps, each timed from here.
    fn trace_fuzz(&self, entry: &SweepEntry, seed: u64, layers: &mut Layers) -> Outcome {
        let t_case = Instant::now();
        let t = Instant::now();
        let programs = fuzz_programs(self.spec, seed);
        layers.add("workloads.gen_s", secs_since(t));
        let tracer = CollectingTracer::shared();
        let cfg = fuzz_config(entry, self.spec);
        let (sys, report, mut out) = simulate(
            cfg,
            programs,
            handle(tracer.clone()),
            FUZZ_MAX_CYCLES,
            layers,
        );
        layers.add_report(&report, &sys);
        let trace = tracer.borrow_mut().take();
        if !sys.finished() {
            return Outcome::failed(unfinished(entry.name, &entry.model));
        }
        let mut models = vec![entry.oracle];
        if entry.oracle == MemoryModel::Sc {
            models.push(MemoryModel::Tso); // certify_case's SC ⊂ TSO re-check
        }
        let mut cert = None;
        for model in models {
            let t = Instant::now();
            let verdict = trace.verify_model(model);
            layers.add("check.verify_s", secs_since(t));
            layers.add("check.verified", trace.accesses.len() as f64);
            match verdict {
                Ok(c) => {
                    cert.get_or_insert(c);
                }
                Err(e) => {
                    return Outcome::failed(format!("{} seed {seed}: {e}", entry.name));
                }
            }
        }
        let cert = cert.expect("at least one model verified");
        let mut error = cert
            .final_memory
            .iter()
            .find(|(&a, &v)| sys.values().read(Addr(a)) != v)
            .map(|(a, _)| format!("{} seed {seed}: value store differs at {a:#x}", entry.name));
        if entry.oracle == MemoryModel::Sc {
            let order: Vec<u32> = cert
                .witness
                .iter()
                .map(|&i| trace.accesses[i].core)
                .collect();
            let t = Instant::now();
            let programs = fuzz_programs(self.spec, seed);
            layers.add("workloads.gen_s", secs_since(t));
            let t = Instant::now();
            let replay = run_in_order(programs, &order, u64::MAX / 2);
            layers.add("workloads.refexec_s", secs_since(t));
            let diverges = cert
                .final_memory
                .iter()
                .any(|(&a, &v)| replay.memory.get(&Addr(a)).copied().unwrap_or(0) != v);
            if !replay.finished || diverges {
                error.get_or_insert(format!(
                    "{} seed {seed}: witness replay differs",
                    entry.name
                ));
            }
        }
        out.secs = secs_since(t_case);
        out.accesses = cert.accesses as u64;
        out.error = error;
        out
    }
}

fn app_config(model: &Model) -> SystemConfig {
    let mut cfg = SystemConfig::cmp8(model.clone());
    cfg.budget = BUDGET;
    cfg
}

/// The configuration `fuzz::run_traced` builds for `entry`.
fn fuzz_config(entry: &SweepEntry, spec: FuzzSpec) -> SystemConfig {
    let mut cfg = SystemConfig::cmp8(entry.model.clone());
    cfg.cores = spec.threads;
    cfg.dirs = entry.dirs;
    cfg.l1 = entry.l1;
    if let Some(sb) = entry.store_buffer {
        cfg.core.store_buffer = sb;
    }
    cfg.budget = u64::MAX;
    cfg
}

fn certify_config() -> StreamConfig {
    StreamConfig::windowed(WINDOW)
}

fn unfinished(name: &str, model: &Model) -> String {
    format!("{name} under {} did not finish", model.name())
}

/// A trace handle feeding `sink` alone.
fn handle<T: Tracer + 'static>(sink: Rc<RefCell<T>>) -> TraceHandle {
    let mut handle = TraceHandle::off();
    handle.attach(sink);
    handle
}

/// Build, run and collect one system with the profiler on, charging
/// each call and the profiler's phase self-times to `layers`.
fn simulate(
    cfg: SystemConfig,
    programs: Vec<Box<dyn ThreadProgram>>,
    trace: TraceHandle,
    max_cycles: u64,
    layers: &mut Layers,
) -> (System, SimReport, Outcome) {
    let bulk = matches!(cfg.model, Model::Bulk(_));
    bulksc_prof::enable();
    let t = Instant::now();
    let mut sys = System::new(cfg, programs);
    layers.add("core.new_s", secs_since(t));
    if trace.enabled() {
        sys.set_tracer(trace);
    }
    let t0 = Instant::now();
    sys.run(max_cycles);
    let run_secs = secs_since(t0);
    let t = Instant::now();
    let report = SimReport::collect(&sys);
    layers.add("core.collect_s", secs_since(t));
    let secs = secs_since(t0);
    let prof = bulksc_prof::disable();
    layers.add("core.run_s", run_secs);
    layers.add_prof(&prof, bulk);
    let out = Outcome {
        secs,
        run_secs,
        cycles: report.cycles,
        retired: report.retired,
        ..Outcome::default()
    };
    (sys, report, out)
}

fn is_value_event(ev: &Event) -> bool {
    matches!(
        ev,
        Event::ValLoad { .. } | Event::ValStore { .. } | Event::ValRmw { .. }
    )
}

/// The number of value events in a BTF artifact.
fn value_events(bytes: &[u8]) -> Result<u64, String> {
    let mut reader = BtfReader::new(bytes).map_err(|e| e.to_string())?;
    let mut n = 0;
    while let Some(block) = reader.next_block().map_err(|e| e.to_string())? {
        n += block.iter().filter(|(_, ev)| is_value_event(ev)).count() as u64;
    }
    Ok(n)
}

/// Certify a BTF artifact the way `check_btf_reader` does, on this
/// thread, timing each call: block decode, event classification, checker
/// push, and finish. Returns the certified access count and the trace's
/// value-event count.
fn drive_oracle(bytes: &[u8], layers: &mut Layers) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let mut reader = BtfReader::new(bytes).map_err(|e| e.to_string())?;
    layers.add("check.decode_s", secs_since(t));
    let mut checker = StreamChecker::new(certify_config());
    let (mut count, mut events) = (0usize, 0u64);
    loop {
        let t = Instant::now();
        let block = reader.next_block().map_err(|e| e.to_string())?;
        layers.add("check.decode_s", secs_since(t));
        let Some(block) = block else { break };
        events += block.iter().filter(|(_, ev)| is_value_event(ev)).count() as u64;
        let t = Instant::now();
        let lines: Vec<TraceLine> = block.iter().map(|(c, ev)| classify_event(*c, ev)).collect();
        layers.add("check.classify_s", secs_since(t));
        for line in lines {
            let t = Instant::now();
            match line {
                TraceLine::Access(mut a) => {
                    a.idx = count;
                    count += 1;
                    checker
                        .push(a)
                        .map_err(|e| format!("certificate refused: {e}"))?;
                }
                TraceLine::Lifecycle(e) => checker.push_lifecycle(e),
                TraceLine::Skip => continue,
            }
            layers.add("check.push_s", secs_since(t));
        }
    }
    let t = Instant::now();
    let cert = checker
        .finish()
        .map_err(|e| format!("certificate refused: {e}"))?;
    layers.add("check.finish_s", secs_since(t));
    layers.add("check.windows", cert.windows as f64);
    layers.add("check.peak_live", cert.peak_live as f64);
    layers.add("check.witness_edges", cert.edges as f64);
    layers.add("check.ambiguous_reads", cert.ambiguous_reads as f64);
    layers.add("check.accesses", cert.accesses as f64);
    Ok((cert.accesses as u64, events))
}

/// A [`Tracer`] that forwards to a [`BtfTracer`] and clocks each record.
#[derive(Default)]
struct TimedSink {
    inner: BtfTracer,
    record_secs: f64,
}

impl Tracer for TimedSink {
    fn record(&mut self, cycle: u64, event: &Event) {
        let t = Instant::now();
        self.inner.record(cycle, event);
        self.record_secs += secs_since(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_check::MemoryModel;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seeds_reach_the_inputs() {
        let a = Suite::new(Workload::BulkSim, 1);
        let b = Suite::new(Workload::BulkSim, 2);
        let Case::Sim { app, model } = &a.cases[0] else {
            panic!("bulk_sim simulates")
        };
        let mut sys_a = a.app_system(*app, model);
        let mut sys_b = b.app_system(*app, model);
        assert!(sys_a.run(MAX_CYCLES) && sys_b.run(MAX_CYCLES));
        assert_ne!(
            sys_a.cycles(),
            sys_b.cycles(),
            "a second seed changes the run"
        );

        let seeds = |s: &Suite| -> Vec<u64> {
            s.cases
                .iter()
                .map(|c| match c {
                    Case::Fuzz { seed, .. } => *seed,
                    _ => unreachable!(),
                })
                .collect()
        };
        let (fa, fb) = (
            seeds(&Suite::new(Workload::Fuzz, 1)),
            seeds(&Suite::new(Workload::Fuzz, 2)),
        );
        assert_eq!(fa.len() as u64, FUZZ_SEEDS * fuzz::sweep().len() as u64);
        assert!(
            fa.iter().all(|s| !fb.contains(s)),
            "seed ranges are disjoint"
        );
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let mut suite = Suite::new(Workload::Fuzz, 3);
        suite.cases.truncate(4);
        for case in &suite.cases {
            let Case::Fuzz { entry, seed } = case else {
                unreachable!()
            };
            let plain = suite.run_case(case, true);
            assert_eq!(plain.error, None);
            let mut layers = Layers::default();
            let traced = suite.trace_case(case, &mut layers);
            assert_eq!(traced.error, None);
            let reference = suite.fuzz_reference(entry, *seed);
            assert_eq!(
                (traced.cycles, traced.retired),
                (reference.cycles, reference.retired)
            );
            assert_eq!(traced.accesses, plain.accesses);
        }
    }

    #[test]
    fn an_injected_fault_counts_as_failed() {
        // Chunks that commit without arbitration break SC; the oracle
        // refuses some of these cases and the benchmark must count them.
        let mut suite = Suite::new(Workload::Fuzz, 0);
        let mut faulty = BulkConfig::bsc_base();
        faulty.commit_without_arbitration = true;
        suite.cases = (0..16)
            .map(|seed| Case::Fuzz {
                entry: SweepEntry {
                    name: "fault",
                    model: Model::Bulk(faulty.clone()),
                    dirs: 1,
                    l1: bulksc_mem::CacheConfig::l1_default(),
                    store_buffer: None,
                    oracle: MemoryModel::Sc,
                },
                seed,
            })
            .collect();
        let outcomes: Vec<Outcome> = suite
            .cases
            .iter()
            .map(|c| suite.run_case(c, true))
            .collect();
        let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
        assert!(failed > 0, "the oracle refused no faulty case");
        let mut tally = crate::Tally::default();
        for o in &outcomes {
            tally.count(o);
        }
        assert_eq!(tally.attempted, 16);
        assert_eq!(tally.failed, failed as u64);
        assert!(tally.fail_ratio() > 0.0);
    }
}
