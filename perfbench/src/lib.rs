//! # perfbench — the verifier's end-to-end benchmark
//!
//! Three workloads drive the verifier through its public API
//! (`Verifier`, `Fleet`, `ChurnSession`) on inputs made from a seed,
//! check every verdict against an answer known without trusting the
//! search, and report end-to-end metrics (untraced run) or a per-layer
//! time budget (traced run). See `README.md` beside this crate for the
//! protocol, the workloads and what each metric should move.
//!
//! All layer measurements are taken from outside: by timing calls into
//! the layers' public functions and by reading the counters the
//! reports already carry. Nothing is instrumented inside the crates.

pub mod audit;
pub mod churn;
pub mod fleet;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("late_verdict_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A
/// metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("step1.ms", "ms"),
    ("step1.share", "ratio"),
    ("symexec.states", "count"),
    ("symexec.segments", "count"),
    ("symexec.suspects", "count"),
    ("symexec.stage_ms_sum", "ms"),
    ("symexec.stage_ms_max", "ms"),
    ("summary.overhead_ms", "ms"),
    ("summary.hits", "count"),
    ("summary.misses", "count"),
    ("summary.hit_ratio", "ratio"),
    ("summary.evictions", "count"),
    ("step2.ms", "ms"),
    ("step2.share", "ratio"),
    ("step2.queries", "count"),
    ("step2.composed_paths", "count"),
    ("step2.proved_ms", "ms"),
    ("step2.disproved_ms", "ms"),
    ("step2.ms_per_query", "ms"),
    ("bv.by_simplify", "count"),
    ("bv.by_interval", "count"),
    ("bv.by_blast", "count"),
    ("bv.blast_share", "ratio"),
    ("bv.blast_cache_hit_ratio", "ratio"),
    ("bv.compactions", "count"),
    ("sat.solve_calls", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.learnt_reused", "count"),
    ("cores.learned", "count"),
    ("cores.hits", "count"),
    ("cores.subtrees_pruned", "count"),
    ("cores.hit_ratio", "ratio"),
    ("cores.live", "count"),
    ("fleet.task_ms", "ms"),
    ("fleet.idle_ms", "ms"),
    ("fleet.idle_frac", "ratio"),
    ("churn.replayed_frac", "ratio"),
    ("churn.stages_reexecuted", "count"),
    ("churn.stages_rebased", "count"),
    ("churn.apply_ms", "ms"),
    ("churn.rss_growth_mb", "MB"),
    ("churn.early_ms_per_query", "ms"),
    ("churn.late_ms_per_query", "ms"),
    ("unattributed.ms", "ms"),
    ("oracle.replays", "count"),
    ("oracle.replay_failures", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.budget_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// One run's parameters, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// The measurement length the timed phase is sized for.
    pub seconds: u64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks with a wrong, undecided, panicked or errored verdict.
    pub failures: Vec<String>,
    /// The metrics of this run: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Metric>,
    /// The sample count behind each percentile metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Per-layer work counts that must repeat exactly for a seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// The traced run's spans, as one JSON document.
    pub trace_json: Option<String>,
    /// Per-bucket means along a churn stream, as a JSON array.
    pub drift: Option<String>,
}

impl Run {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value reported under `name`: a metric, else a work count.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .or_else(|| self.counts.get(name).map(|&c| c as f64))
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `xs`, by linear interpolation
/// between the closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A `VmHWM` / `VmRSS` style field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process, in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// The cores this host offers the process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` and turns a panic into an error string, so that one failing
/// check counts as failed instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".into(), |s| format!("panicked: {s}"))
    })
}

/// How many times each set-up is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Times `SETUP_REPS` runs of `setup` and returns the median in
/// seconds together with the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = std::time::Instant::now();
        let out = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("SETUP_REPS > 0"))
}

/// Adds the latency metrics shared by every workload: median, p90 and
/// p99 over all requests, and the median over `late`, the late part of
/// the run. Only `churn` requests depend on what came before; for the
/// other workloads the late part is the whole run.
pub fn latency_metrics(run: &mut Run, latencies_ms: &[f64], late_ms: &[f64]) {
    run.metric("verdict_p50_ms", median(latencies_ms), "ms");
    run.metric("verdict_p90_ms", quantile(latencies_ms, 0.90), "ms");
    run.metric("verdict_p99_ms", quantile(latencies_ms, 0.99), "ms");
    run.metric("late_verdict_p50_ms", median(late_ms), "ms");
    for name in ["verdict_p50_ms", "verdict_p90_ms", "verdict_p99_ms"] {
        run.samples.insert(name, latencies_ms.len());
    }
    run.samples.insert("late_verdict_p50_ms", late_ms.len());
}
