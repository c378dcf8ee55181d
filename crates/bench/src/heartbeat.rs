//! Sweep heartbeat: periodic live progress for long `--metrics` runs.
//!
//! Every experiment binary runs sweeps on the `pool` worker engine, which
//! feeds the `bulksc_metrics::live` progress atomics when live collection
//! is active. This module turns those atomics into operator-visible
//! output: under `--metrics[=every_ms]` a background thread wakes on the
//! chosen interval and
//!
//! * prints a one-line progress report to **stderr** (`done/total`, jobs
//!   in flight, queue depth, ETA) — stdout stays reserved for the
//!   deterministic figure/report text, which must be byte-identical with
//!   metrics on or off;
//! * appends a schema-stamped JSON snapshot line to
//!   `results/<name>.metrics.jsonl` for `bulksc-analyze metrics`.
//!
//! On [`Heartbeat::finish`] the thread is joined, a final snapshot line
//! (`"final":true`) is appended, the merged registry snapshot is written
//! as a Prometheus-style text exposition to `results/<name>.metrics.prom`
//! (the scrape surface a future `bulksc-serve` will expose), and the
//! snapshot is returned to the caller.
//!
//! The flag deliberately has only two spellings — bare `--metrics` (the
//! default interval) and `--metrics=MS` — so it can never swallow a
//! neighboring positional argument (the fuzz driver takes bare seeds).

use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bulksc_metrics::{self as metrics, MetricsSnapshot};
use bulksc_trace::Json;

/// Snapshot interval when `--metrics` is given without a value.
pub const DEFAULT_EVERY_MS: u64 = 1000;

/// Parse `--metrics` / `--metrics=MS` out of an argument list.
/// `Ok(None)` means the flag was absent; `Ok(Some(ms))` carries the
/// snapshot interval; `Err` carries a usage message.
pub fn parse_metrics_flag<I: IntoIterator<Item = String>>(args: I) -> Result<Option<u64>, String> {
    for arg in args {
        if arg == "--metrics" {
            return Ok(Some(DEFAULT_EVERY_MS));
        }
        if let Some(v) = arg.strip_prefix("--metrics=") {
            return match v.parse::<u64>() {
                Ok(ms) if ms >= 1 => Ok(Some(ms)),
                _ => Err(format!(
                    "--metrics wants a positive interval in milliseconds, got {v:?}"
                )),
            };
        }
    }
    Ok(None)
}

/// The `--metrics` interval from the process arguments, if the flag is
/// present. Exits with status 2 on a malformed value.
pub fn metrics_from_cli() -> Option<u64> {
    match parse_metrics_flag(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The JSONL header line: first line of every `<name>.metrics.jsonl`.
pub fn jsonl_header(name: &str, every_ms: u64) -> String {
    Json::obj([
        ("schema", "bulksc-metrics".into()),
        ("version", bulksc_trace::SCHEMA_VERSION.into()),
        ("name", name.into()),
        ("every_ms", every_ms.into()),
    ])
    .to_string()
}

fn snapshot_line(start_ns: u64, live: metrics::live::LiveSnapshot, is_final: bool) -> String {
    let now_ns = bulksc_prof::clock::now_ns();
    let elapsed_s = now_ns.saturating_sub(start_ns) as f64 / 1e9;
    // ETA from the average completion rate so far; 0 until the first job
    // lands (and on the final line, where nothing remains).
    let remaining = live.total.saturating_sub(live.done);
    let eta_s = if live.done > 0 && remaining > 0 && elapsed_s > 0.0 {
        remaining as f64 / (live.done as f64 / elapsed_s)
    } else {
        0.0
    };
    Json::obj([
        ("wall_ns", now_ns.into()),
        ("done", live.done.into()),
        ("total", live.total.into()),
        ("in_flight", live.in_flight.into()),
        ("queue_depth", live.queue_depth.into()),
        ("queue_peak", live.queue_peak.into()),
        ("panicked", live.panicked.into()),
        ("squashes_true", live.squashes_true.into()),
        ("squashes_alias", live.squashes_alias.into()),
        ("squashes_overflow", live.squashes_overflow.into()),
        ("eta_s", eta_s.into()),
        ("final", is_final.into()),
    ])
    .to_string()
}

fn stderr_line(name: &str, start_ns: u64, live: metrics::live::LiveSnapshot) -> String {
    let elapsed_s = bulksc_prof::clock::now_ns().saturating_sub(start_ns) as f64 / 1e9;
    let remaining = live.total.saturating_sub(live.done);
    let eta = if live.done > 0 && remaining > 0 && elapsed_s > 0.0 {
        format!(
            ", eta ~{:.1}s",
            remaining as f64 / (live.done as f64 / elapsed_s)
        )
    } else {
        String::new()
    };
    // Squash rates by cause, shown once a finished run has reported
    // squashes — the first read on a squash storm (`EXPERIMENTS.md`
    // walkthrough).
    let squashed = live.squashes_true + live.squashes_alias + live.squashes_overflow;
    let squashes = if squashed > 0 && elapsed_s > 0.0 {
        format!(
            ", squash/s true {:.1} alias {:.1} ovf {:.1}",
            live.squashes_true as f64 / elapsed_s,
            live.squashes_alias as f64 / elapsed_s,
            live.squashes_overflow as f64 / elapsed_s
        )
    } else {
        String::new()
    };
    format!(
        "[metrics] {name}: {}/{} jobs done, {} in flight, queue {}{squashes}{eta}",
        live.done, live.total, live.in_flight, live.queue_depth
    )
}

/// A running heartbeat: the background snapshot thread plus the handles
/// needed to finish cleanly. Construct with [`Heartbeat::maybe_start`]
/// (CLI-gated) or [`Heartbeat::start`] (unconditional).
pub struct Heartbeat {
    name: String,
    every_ms: u64,
    start_ns: u64,
    stop: Arc<AtomicBool>,
    // The thread owns the JSONL file while running and hands it back on
    // join so `finish` can append the final line.
    thread: Option<JoinHandle<File>>,
    jsonl_path: String,
    prom_path: String,
}

impl Heartbeat {
    /// Start a heartbeat iff the process was invoked with `--metrics`.
    pub fn maybe_start(name: &str) -> Option<Heartbeat> {
        metrics_from_cli().map(|every_ms| Heartbeat::start(name, every_ms))
    }

    /// Activate live + registry collection and spawn the snapshot thread.
    /// Files land in `results/<name>.metrics.{jsonl,prom}`.
    ///
    /// # Panics
    ///
    /// If `results/` or the JSONL file cannot be created.
    pub fn start(name: &str, every_ms: u64) -> Heartbeat {
        let every_ms = every_ms.max(1);
        std::fs::create_dir_all("results").expect("cannot create results/");
        let jsonl_path = format!("results/{name}.metrics.jsonl");
        let prom_path = format!("results/{name}.metrics.prom");
        let mut file =
            File::create(&jsonl_path).unwrap_or_else(|e| panic!("cannot create {jsonl_path}: {e}"));
        writeln!(file, "{}", jsonl_header(name, every_ms)).expect("metrics jsonl write failed");

        // Order matters: live + registry collection must be on before the
        // sweep enqueues its first job.
        metrics::reset_global();
        metrics::live::activate();
        metrics::enable();

        let start_ns = bulksc_prof::clock::now_ns();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let name = name.to_string();
            std::thread::spawn(move || {
                let mut next_ns = start_ns + every_ms * 1_000_000;
                while !stop.load(Ordering::SeqCst) {
                    // Sleep in short slices so finish() is prompt even
                    // under a long interval.
                    std::thread::sleep(Duration::from_millis(every_ms.min(25)));
                    if bulksc_prof::clock::now_ns() < next_ns {
                        continue;
                    }
                    next_ns += every_ms * 1_000_000;
                    let live = metrics::live::snapshot();
                    eprintln!("{}", stderr_line(&name, start_ns, live));
                    writeln!(file, "{}", snapshot_line(start_ns, live, false))
                        .expect("metrics jsonl write failed");
                }
                let _ = file.flush();
                file
            })
        };

        Heartbeat {
            name: name.to_string(),
            every_ms,
            start_ns,
            stop,
            thread: Some(thread),
            jsonl_path,
            prom_path,
        }
    }

    /// The snapshot interval in milliseconds.
    pub fn every_ms(&self) -> u64 {
        self.every_ms
    }

    /// Path of the JSONL snapshot stream this heartbeat appends to.
    pub fn jsonl_path(&self) -> &str {
        &self.jsonl_path
    }

    /// Path of the text exposition written by [`Heartbeat::finish`].
    pub fn prom_path(&self) -> &str {
        &self.prom_path
    }

    /// Stop the snapshot thread, append the final JSONL line, write the
    /// text exposition, and return the merged registry snapshot (the
    /// caller thread's shard merged with every published worker shard).
    pub fn finish(mut self) -> MetricsSnapshot {
        let file = self.join_thread();
        metrics::live::deactivate();
        let live = metrics::live::snapshot();

        if let Some(mut file) = file {
            writeln!(file, "{}", snapshot_line(self.start_ns, live, true))
                .expect("metrics jsonl write failed");
            let _ = file.flush();
        }

        let mut snap = metrics::disable();
        snap.merge(&metrics::take_global());
        std::fs::write(&self.prom_path, snap.to_text_exposition())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.prom_path));

        eprintln!(
            "{}",
            stderr_line(&self.name, self.start_ns, live) + " (finished)"
        );
        eprintln!("[metrics] wrote {} and {}", self.jsonl_path, self.prom_path);
        snap
    }

    fn join_thread(&mut self) -> Option<File> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        // An un-finished heartbeat (caller panicked mid-sweep) must not
        // leave the snapshot thread running.
        self.join_thread();
        metrics::live::deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn metrics_flag_parses_both_spellings() {
        assert_eq!(parse_metrics_flag(args(&[])), Ok(None));
        assert_eq!(parse_metrics_flag(args(&["fast"])), Ok(None));
        assert_eq!(
            parse_metrics_flag(args(&["--metrics"])),
            Ok(Some(DEFAULT_EVERY_MS))
        );
        assert_eq!(parse_metrics_flag(args(&["--metrics=250"])), Ok(Some(250)));
        assert_eq!(
            parse_metrics_flag(args(&["--jobs", "4", "--metrics=10", "fast"])),
            Ok(Some(10))
        );
    }

    #[test]
    fn metrics_flag_never_eats_the_next_argument() {
        // `--metrics 500` is the bare flag followed by a positional `500`
        // (a fuzz seed, say) — the 500 must NOT be taken as the interval.
        assert_eq!(
            parse_metrics_flag(args(&["--metrics", "500"])),
            Ok(Some(DEFAULT_EVERY_MS))
        );
    }

    #[test]
    fn metrics_flag_rejects_garbage() {
        assert!(parse_metrics_flag(args(&["--metrics=zero"])).is_err());
        assert!(parse_metrics_flag(args(&["--metrics=0"])).is_err());
        assert!(parse_metrics_flag(args(&["--metrics=-5"])).is_err());
        assert!(parse_metrics_flag(args(&["--metrics="])).is_err());
    }

    #[test]
    fn header_and_snapshot_lines_are_valid_json() {
        let h = jsonl_header("fig9", 250);
        assert!(bulksc_trace::json::is_valid(&h));
        assert!(h.contains("\"schema\":\"bulksc-metrics\""));
        assert!(h.contains("\"every_ms\":250"));
        let line = snapshot_line(
            0,
            metrics::live::LiveSnapshot {
                total: 10,
                done: 4,
                in_flight: 2,
                queue_depth: 4,
                queue_peak: 10,
                panicked: 0,
                squashes_true: 3,
                squashes_alias: 1,
                squashes_overflow: 0,
            },
            false,
        );
        assert!(bulksc_trace::json::is_valid(&line));
        assert!(line.contains("\"done\":4"));
        assert!(line.contains("\"squashes_true\":3"));
        assert!(line.contains("\"squashes_alias\":1"));
        assert!(line.contains("\"final\":false"));
    }

    #[test]
    fn stderr_line_shows_progress() {
        let line = stderr_line(
            "fig9",
            0,
            metrics::live::LiveSnapshot {
                total: 91,
                done: 42,
                in_flight: 3,
                queue_depth: 46,
                queue_peak: 91,
                panicked: 0,
                squashes_true: 0,
                squashes_alias: 0,
                squashes_overflow: 0,
            },
        );
        assert!(line.starts_with("[metrics] fig9: 42/91 jobs done"));
        assert!(line.contains("queue 46"));
        assert!(line.contains("eta ~"), "{line}");
        assert!(
            !line.contains("squash/s"),
            "no squash rate until squashes happen: {line}"
        );
    }

    #[test]
    fn stderr_line_breaks_squashes_out_by_cause() {
        let line = stderr_line(
            "fig9",
            0,
            metrics::live::LiveSnapshot {
                total: 91,
                done: 42,
                in_flight: 3,
                queue_depth: 46,
                queue_peak: 91,
                panicked: 0,
                squashes_true: 120,
                squashes_alias: 40,
                squashes_overflow: 4,
            },
        );
        assert!(line.contains("squash/s true "), "{line}");
        assert!(line.contains(" alias "), "{line}");
        assert!(line.contains(" ovf "), "{line}");
    }
}
