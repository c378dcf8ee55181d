//! The repository benchmark: runs one named workload for a fixed host
//! time and prints its end-to-end metrics (untraced, unprofiled runs) or,
//! with `--trace 1`, its per-layer metrics (a separate traced run of the
//! same workload, interleaved with untraced passes to measure the
//! tracing overhead).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bulk_sim [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! The line before it stamps the run (budget, cases, window, host CPUs,
//! seed, commit) so mismatched runs are never compared. Any failed
//! operation is reported on standard error and makes the exit status 1.
//! `README.md` next to this crate defines every metric.

mod calib;
mod layers;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bulksc_trace::Json;

use layers::{Layers, PER_LAYER};
use stats::{median, ratio};
use suite::{Case, Outcome, Suite, Workload, BUDGET, FUZZ_SEEDS, WINDOW};

/// A metric's printed name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The end-to-end metrics every untraced run prints, in print order.
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "wall_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "sim_kips",
        unit: "kinstr/s",
        better: "higher",
    },
    Metric {
        name: "sim_cycles",
        unit: "cycles",
        better: "lower",
    },
    Metric {
        name: "cases_per_s",
        unit: "1/s",
        better: "higher",
    },
    Metric {
        name: "case_ms_p50",
        unit: "ms",
        better: "lower",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// Host time spent re-measuring set-up before each pass (at least one
/// repetition); `setup_s` is the median over every repetition of the run.
const SETUP_SLICE: Duration = Duration::from_millis(20);

/// Host time spent on the calibration kernel before each pass.
const KERNEL_SLICE: Duration = Duration::from_millis(30);

/// `--seconds` when not given: the run length `BENCHMARK.json` sets.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: bulksc-e2ebench --workload bulk_sim|baseline_sim|certify|fuzz \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, bulksc_bench::SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Attempted and failed operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, reporting a failure on standard error.
    pub fn count(&mut self, o: &Outcome) {
        self.attempted += 1;
        if let Some(e) = &o.error {
            self.failed += 1;
            eprintln!("FAILED: {e}");
        }
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Everything measured for one case of the pass.
#[derive(Default)]
struct CaseRecord {
    secs: Vec<f64>,
    run_secs: Vec<f64>,
    /// Exact results; every later execution must reproduce them.
    cycles: Option<u64>,
    retired: Option<u64>,
    accesses: Option<u64>,
}

impl CaseRecord {
    /// Check `o`'s exact results against earlier executions of the same
    /// case (0 means the call does not report that result).
    fn agrees(&mut self, o: &Outcome) -> bool {
        [
            (&mut self.cycles, o.cycles),
            (&mut self.retired, o.retired),
            (&mut self.accesses, o.accesses),
        ]
        .into_iter()
        .all(|(seen, got)| got == 0 || *seen.get_or_insert(got) == got)
    }
}

struct Runner<'a> {
    suite: &'a Suite,
    tally: Tally,
    records: Vec<CaseRecord>,
}

impl<'a> Runner<'a> {
    fn new(suite: &'a Suite) -> Runner<'a> {
        Runner {
            suite,
            tally: Tally::default(),
            records: suite.cases.iter().map(|_| CaseRecord::default()).collect(),
        }
    }

    fn settle(&mut self, i: usize, mut o: Outcome) -> Outcome {
        if o.error.is_none() && !self.records[i].agrees(&o) {
            o.error = Some(format!(
                "case {i}: cycles {}, retired {}, accesses {} differ from an earlier run \
                 of the same case",
                o.cycles, o.retired, o.accesses
            ));
        }
        self.tally.count(&o);
        o
    }

    /// Fuzz cases: record the cycles and retired instructions that
    /// `certify_case` does not report.
    fn fuzz_reference(&mut self) {
        for (i, case) in self.suite.cases.iter().enumerate() {
            if let Case::Fuzz { entry, seed } = case {
                let o = self.suite.fuzz_reference(entry, *seed);
                self.settle(i, o);
            }
        }
    }

    /// One untraced pass; returns its wall time (the sum of case times).
    fn untraced_pass(&mut self) -> f64 {
        let mut wall = 0.0;
        for (i, case) in self.suite.cases.iter().enumerate() {
            let audit = self.records[i].accesses.is_none();
            let o = self.settle(i, self.suite.run_case(case, audit));
            if o.error.is_none() {
                let r = &mut self.records[i];
                r.secs.push(o.secs);
                r.run_secs.push(o.run_secs);
            }
            wall += o.secs;
        }
        wall
    }

    /// One traced pass; returns its wall time and per-layer metrics.
    fn traced_pass(&mut self) -> (f64, BTreeMap<&'static str, f64>) {
        let mut layers = Layers::default();
        let mut wall = 0.0;
        for (i, case) in self.suite.cases.iter().enumerate() {
            let o = self.suite.trace_case(case, &mut layers);
            wall += self.settle(i, o).secs;
        }
        (wall, layers.metrics())
    }

    /// The end-to-end metrics, host times scaled by `scale` to the
    /// reference host's quiet speed.
    fn end_to_end(&self, setup: &[f64], scale: f64) -> Vec<(&'static str, f64)> {
        let sum_medians = |f: fn(&CaseRecord) -> &Vec<f64>| -> f64 {
            self.records.iter().map(|r| median(f(r))).sum()
        };
        let wall = sum_medians(|r| &r.secs) * scale;
        let run = sum_medians(|r| &r.run_secs) * scale;
        // certify_case hides System::run: fuzz rates over the whole call.
        let sim_secs = if run > 0.0 { run } else { wall };
        let total = |f: fn(&CaseRecord) -> Option<u64>| -> f64 {
            self.records.iter().filter_map(f).sum::<u64>() as f64
        };
        let ms: Vec<f64> = self
            .records
            .iter()
            .flat_map(|r| &r.secs)
            .map(|s| s * 1e3 * scale)
            .collect();
        let rss_kb = bulksc_bench::peak_rss_kb().unwrap_or(0);
        vec![
            ("setup_s", median(setup) * scale),
            ("wall_s", wall),
            ("sim_kips", ratio(total(|r| r.retired), sim_secs * 1e3)),
            ("sim_cycles", total(|r| r.cycles)),
            ("cases_per_s", ratio(self.records.len() as f64, wall)),
            ("case_ms_p50", median(&ms)),
            ("peak_rss_mb", rss_kb as f64 / 1024.0),
        ]
    }
}

/// Run `f` repeatedly for at least `slice` (at least once), collecting
/// its results into `out`.
fn repeat_for(slice: Duration, out: &mut Vec<f64>, mut f: impl FnMut() -> f64) {
    let t = Instant::now();
    while t.elapsed() < slice {
        out.push(f());
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(specs: &[Metric], values: &BTreeMap<&str, f64>) -> Json {
    let mut out = Json::Obj(Vec::new());
    for m in specs {
        let value = values.get(m.name).copied().unwrap_or(0.0);
        out.push(
            m.name,
            Json::obj([("value", value.into()), ("unit", m.unit.into())]),
        );
    }
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let suite = Suite::new(args.workload, args.seed);
    let mut runner = Runner::new(&suite);
    let budget = Duration::from_secs_f64(args.seconds);

    if args.workload == Workload::Fuzz {
        runner.fuzz_reference();
    }
    let (mut setup, mut kernel) = (vec![], vec![]);
    let (mut passes, mut plain_walls, mut traced_walls, mut traced) =
        (0u64, vec![], vec![], vec![]);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        repeat_for(SETUP_SLICE, &mut setup, || suite.setup());
        repeat_for(KERNEL_SLICE, &mut kernel, calib::kernel);
        plain_walls.push(runner.untraced_pass());
        if args.trace {
            let (wall, layers) = runner.traced_pass();
            traced_walls.push(wall);
            traced.push(layers);
        }
        passes += 1;
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    let (specs, values): (&[Metric], BTreeMap<&str, f64>) = if args.trace {
        let mut values: BTreeMap<&str, f64> = PER_LAYER
            .iter()
            .map(|m| {
                let per_pass: Vec<f64> = traced
                    .iter()
                    .filter_map(|l| l.get(m.name).copied())
                    .collect();
                (m.name, median(&per_pass))
            })
            .collect();
        values.insert(
            "bench.trace_overhead",
            ratio(median(&traced_walls), median(&plain_walls)),
        );
        values.insert("bench.fail_ratio", runner.tally.fail_ratio());
        (PER_LAYER, values)
    } else {
        let scale = calib::REFERENCE_KERNEL_S / median(&kernel);
        (
            END_TO_END,
            runner.end_to_end(&setup, scale).into_iter().collect(),
        )
    };

    let stamp = Json::obj([
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("trace", args.trace.into()),
        ("seconds", args.seconds.into()),
        ("budget", BUDGET.into()),
        ("window", WINDOW.into()),
        ("fuzz_seeds", FUZZ_SEEDS.into()),
        ("cases_per_pass", suite.cases.len().into()),
        ("passes", passes.into()),
        (
            "case_samples",
            runner
                .records
                .iter()
                .map(|r| r.secs.len())
                .sum::<usize>()
                .into(),
        ),
        ("setup_reps", setup.len().into()),
        ("kernel_s", median(&kernel).into()),
        ("reference_kernel_s", calib::REFERENCE_KERNEL_S.into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |p| p.get())
                .into(),
        ),
        ("commit", commit().into()),
    ]);
    println!("{}", Json::obj([("stamp", stamp)]));
    for m in specs {
        eprintln!("{:<26} {:>16.6} {}", m.name, values[m.name], m.unit);
    }
    let correct = runner.tally.failed == 0;
    let result = Json::obj([
        ("correct", correct.into()),
        ("attempted", runner.tally.attempted.into()),
        ("failed", runner.tally.failed.into()),
        ("metrics", metrics_json(specs, &values)),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "names are used once");
        assert!(!valid_name("bad name") && !valid_name("x/y") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let spec = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(list("end_to_end"), spec(END_TO_END));
        assert_eq!(list("per_layer"), spec(PER_LAYER));
        let workloads = list("workloads");
        assert!(workloads.len() >= 2);
        for (name, ..) in workloads {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fuzz --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Fuzz, 7, 2.5, true)
        );
        let d = parse("--workload certify").unwrap();
        assert_eq!((d.seed, d.trace), (bulksc_bench::SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload fuzz --trace 2",
            "--workload fuzz --seconds -1",
            "--workload fuzz --seed",
            "--workload fuzz --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn a_disagreeing_repeat_is_a_failure() {
        let mut r = CaseRecord::default();
        let o = |cycles, retired| Outcome {
            cycles,
            retired,
            ..Outcome::default()
        };
        assert!(r.agrees(&o(100, 50)));
        assert!(r.agrees(&o(100, 50)));
        assert!(r.agrees(&o(0, 0)), "unreported results are not compared");
        assert!(!r.agrees(&o(101, 50)));
    }
}
