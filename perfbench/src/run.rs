//! One benchmark run: set-up, a closed loop of units for a fixed time,
//! and the record.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mem3d::ServicePath;
use sim_util::json::{self, JsonObject};

use crate::golden::{check, Golden};
use crate::layers::{traced_unit, METRICS};
use crate::stats::{median, quartiles, tail};
use crate::trace::Tracer;
use crate::workload::{Output, Plan, Scale, Workload};

/// The line a `--setup-only` process prints when its set-up is done.
pub const READY: &str = "ready";

/// Errors kept in the record, at most.
const MAX_ERRORS: usize = 8;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Problem sizes.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Measured time after set-up, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The golden digests units are checked against.
    pub golden: Golden,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Timed units started.
    pub attempted: u64,
    /// Timed units that returned an error, panicked or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Seconds each fresh set-up process took to report ready; empty
    /// unless filled from [`timed_setups`].
    pub setup_s: Vec<f64>,
    /// Host ms of each untraced unit.
    pub unit_ms: Vec<f64>,
    /// Simulated beats per host second of each untraced unit.
    pub beats_per_s: Vec<f64>,
    /// Host ms of the workload call in each traced unit.
    pub traced_call_ms: Vec<f64>,
    /// Per-layer metrics of each traced unit.
    pub layers: Vec<BTreeMap<&'static str, f64>>,
    /// Layer time attribution of each traced unit.
    pub layer_ms: Vec<Vec<(&'static str, f64)>>,
    /// Spans of the traced units.
    pub tracer: Tracer,
}

impl RunResult {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e);
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&*p))))
}

/// One checked unit: its output if it ran and matched `expected`.
///
/// # Errors
///
/// Returns why the unit failed: an error, a panic or a digest mismatch.
pub fn checked_unit(plan: &Plan, expected: &[(String, u64)]) -> Result<Output, String> {
    let out = guarded(|| plan.run())?;
    check(&out, expected)?;
    Ok(out)
}

/// Set-up: the inputs, the expected digests and one warm-up unit. A
/// `--setup-only` process does this, reports [`READY`] and exits.
///
/// # Errors
///
/// Fails when the expected digests cannot be made or the warm-up unit
/// fails.
pub fn setup(cfg: &RunConfig) -> Result<(Plan, Vec<(String, u64)>), String> {
    let plan = Plan::new(cfg.workload, cfg.scale, cfg.seed, ServicePath::Fast);
    let expected = guarded(|| cfg.golden.expected(&plan))?;
    guarded(|| plan.run())?;
    Ok((plan, expected))
}

/// Starts `count` fresh processes of `exe` with `args` and
/// `--setup-only`, one after another. Each time runs from the spawn to
/// the process's [`READY`] line, so it covers loading, first touches
/// and one-time initialisation as well as the set-up itself: the wait
/// before a user's first unit. Every process is waited for.
///
/// # Errors
///
/// Fails when a process cannot start or does not report ready.
pub fn timed_setups(exe: &Path, args: &[String], count: usize) -> Result<Vec<f64>, String> {
    (0..count).map(|_| timed_setup(exe, args)).collect()
}

fn timed_setup(exe: &Path, args: &[String]) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let secs = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
    match read {
        Some(Ok(_)) if status.success() && line.trim_end() == READY => Ok(secs),
        _ => Err(format!("set-up process did not report ready ({status})")),
    }
}

/// Runs the benchmark: set-up, then units until `cfg.seconds` have
/// passed. A traced run alternates untraced and traced units.
///
/// # Errors
///
/// Fails only when set-up fails; unit failures are counted instead.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let (plan, expected) = setup(cfg)?;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    // A traced run needs one unit of each kind whatever the deadline.
    let min_units = 1 + u64::from(cfg.trace);
    let mut traced_next = false;
    while Instant::now() < deadline || r.attempted < min_units {
        r.attempted += 1;
        if traced_next {
            match guarded(|| traced_unit(&plan, &mut r.tracer)) {
                Ok(t) => {
                    let check = check(&t.output, &expected)
                        .and_then(|()| r.tracer.self_times(t.root).map(|_| ()));
                    match check {
                        Ok(()) => {
                            r.traced_call_ms.push(t.call_ns as f64 / 1e6);
                            r.layers.push(t.metrics);
                            r.layer_ms.push(t.layer_ms);
                        }
                        Err(e) => r.fail(e),
                    }
                }
                Err(e) => r.fail(e),
            }
        } else {
            let t = Instant::now();
            let out = checked_unit(&plan, &expected);
            let secs = t.elapsed().as_secs_f64();
            r.unit_ms.push(secs * 1e3);
            match out {
                Ok(out) => r.beats_per_s.push(out.beats as f64 / secs),
                Err(e) => r.fail(e),
            }
        }
        traced_next = cfg.trace && !traced_next;
    }
    Ok(r)
}

/// `{"value": v, "unit": u}`.
fn metric(v: f64, unit: &str) -> String {
    let mut o = JsonObject::new();
    o.field_f64("value", v).field_str("unit", unit);
    o.finish()
}

/// The end-to-end metrics of an untraced run, by name.
///
/// # Errors
///
/// Fails when peak memory cannot be read.
pub fn end_to_end(r: &RunResult) -> Result<Vec<(&'static str, String)>, String> {
    let p50 = median(&r.unit_ms).unwrap_or(0.0);
    let tail_ms = tail(&r.unit_ms).map_or(p50, |t| t.value);
    let ok = (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64;
    Ok(vec![
        ("setup_s", metric(median(&r.setup_s).unwrap_or(0.0), "s")),
        ("unit_ms.p50", metric(p50, "ms")),
        ("unit_ms.tail", metric(tail_ms, "ms")),
        (
            "sim_beats_per_s",
            metric(median(&r.beats_per_s).unwrap_or(0.0), "beats/s"),
        ),
        ("peak_rss_mib", metric(crate::host::peak_rss_mib()?, "MiB")),
        ("ok_frac", metric(ok, "ratio")),
    ])
}

/// The per-layer metrics of a traced run: each metric's median over
/// the traced units, plus the tracing overhead.
pub fn per_layer(r: &RunResult) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let xs: Vec<f64> = r
                .layers
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            (name, metric(median(&xs).unwrap_or(0.0), unit))
        })
        .collect();
    let overhead = match (median(&r.traced_call_ms), median(&r.unit_ms)) {
        (Some(t), Some(u)) if u > 0.0 => t / u,
        _ => 0.0,
    };
    out.push(("tracing.overhead", metric(overhead, "x")));
    out
}

/// The layer with the most attributed time, by median over the traced
/// units, with every layer's median in ms.
pub fn dominant_layer(r: &RunResult) -> Option<(&'static str, Vec<(&'static str, f64)>)> {
    let names: Vec<&'static str> = r.layer_ms.first()?.iter().map(|&(n, _)| n).collect();
    let medians: Vec<(&'static str, f64)> = names
        .iter()
        .map(|&n| {
            let xs: Vec<f64> = r
                .layer_ms
                .iter()
                .filter_map(|u| u.iter().find(|(k, _)| *k == n).map(|&(_, v)| v))
                .collect();
            (n, median(&xs).unwrap_or(0.0))
        })
        .collect();
    let top = medians
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(n, _)| n)?;
    Some((top, medians))
}

/// The full record of a run: host header, sample statistics and the
/// metrics printed on the result line.
pub fn record(
    cfg: &RunConfig,
    r: &RunResult,
    header: &str,
    metrics: &[(&'static str, String)],
) -> String {
    let mut samples = JsonObject::new();
    samples.field_u64("count", r.unit_ms.len() as u64);
    if let Some((q1, q3)) = quartiles(&r.unit_ms) {
        samples.field_f64("q1_ms", q1).field_f64("q3_ms", q3);
    }
    let min = r.unit_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = r.unit_ms.iter().copied().fold(0.0, f64::max);
    samples.field_f64("min_ms", min).field_f64("max_ms", max);
    match tail(&r.unit_ms) {
        Some(t) => samples
            .field_f64("tail_percentile", t.pct)
            .field_u64("tail_samples", t.samples as u64),
        None => samples.field_str("tail_percentile", "p50 (fewer than 11 samples)"),
    };
    let mut o = JsonObject::new();
    o.field_raw("host", header)
        .field_str("workload", cfg.workload.name())
        .field_u64("seed", cfg.seed)
        .field_f64("seconds", cfg.seconds)
        .field_bool("trace", cfg.trace)
        .field_u64("attempted", r.attempted)
        .field_u64("failed", r.failed)
        .field_raw(
            "errors",
            &json::array(r.errors.iter().map(|e| format!("\"{}\"", json::escape(e)))),
        )
        .field_raw(
            "setup_s",
            &json::array(r.setup_s.iter().map(|&s| json::fmt_f64(s))),
        )
        .field_raw("unit_samples", &samples.finish())
        .field_raw("metrics", &metrics_object(metrics));
    if let Some((top, layers)) = dominant_layer(r) {
        let mut l = JsonObject::new();
        for (name, v) in layers {
            l.field_f64(name, v);
        }
        o.field_str("dominant_layer", top)
            .field_raw("layer_ms", &l.finish());
    }
    o.finish()
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(r: &RunResult, metrics: &[(&'static str, String)]) -> String {
    let mut o = JsonObject::new();
    o.field_bool("correct", r.failed == 0)
        .field_u64("attempted", r.attempted)
        .field_u64("failed", r.failed)
        .field_raw("metrics", &metrics_object(metrics));
    o.finish()
}

/// `{"<name>": {"value": v, "unit": u}, ...}` in report order.
fn metrics_object(metrics: &[(&'static str, String)]) -> String {
    let mut m = JsonObject::new();
    for (name, v) in metrics {
        m.field_raw(name, v);
    }
    m.finish()
}
