//! `fleet`: one `Fleet::run` over FIB variants of the six-stage router
//! × {crash-freedom, bounded-execution}, on two worker threads and the
//! fleet's shared in-memory summary store. Proof-heavy: step 2 is
//! nearly all of the task time, and every Abstract-mode search is the
//! same search, because those summaries ignore table contents.

use crate::inputs::{fleet_properties, fleet_variants, Answer};
use crate::layers::{distinct_elements, timed, Layers};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::{guarded, latency_metrics, median, ms, peak_rss_mb, timed_setup, Params, Run};
use dataplane::Pipeline;
use dpv_bench::fig_verify_config;
use verifier::{Fleet, FleetReport, MapMode};

/// Worker threads of the fleet's task pool.
pub const THREADS: usize = 2;

/// How much one run verifies.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// FIB variants in the fleet.
    pub variants: usize,
    /// `Fleet::run` repetitions, each on a fresh fleet and store.
    pub reps: usize,
}

/// Seconds one `Fleet::run` takes on a 2-core x86-64 host; the
/// repetition count is fixed from it.
const RUN_SECONDS: u64 = 4;

impl Size {
    /// The size for a `seconds`-long measurement.
    pub fn for_seconds(seconds: u64) -> Self {
        Size {
            variants: 16,
            reps: (seconds / RUN_SECONDS).max(1) as usize,
        }
    }
}

fn build(variants: &[(String, Pipeline)]) -> Fleet {
    variants
        .iter()
        .fold(
            Fleet::new().config(fig_verify_config()).threads(THREADS),
            |f, (name, p)| f.variant(name.clone(), p.clone()),
        )
        .properties(&fleet_properties())
}

/// Runs the workload.
pub fn run(params: &Params, size: Size) -> Run {
    let (setup_s, variants) = timed_setup(|| {
        let variants = fleet_variants(params.seed, size.variants);
        drop(build(&variants));
        variants
    });
    let properties = fleet_properties();
    let mut run = Run::default();
    let mut oracle = Oracle::default();
    let mut layers = Layers {
        threads: THREADS,
        ..Default::default()
    };
    let mut tracer = Tracer::new();
    let mut latencies = Vec::new();
    let mut wall_ms = Vec::new();
    for _ in 0..size.reps {
        let fleet = build(&variants);
        let t_run = std::time::Instant::now();
        let (report, d) = timed(|| guarded(|| fleet.run()));
        wall_ms.push(ms(d));
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                for (name, _) in &variants {
                    for p in &properties {
                        oracle.error(&format!("fleet {name} {p:?}"), &e);
                    }
                }
                continue;
            }
        };
        latencies.extend(variant_ms(&report));
        if params.trace {
            trace_run(&report, t_run, d, &variants, &mut layers, &mut tracer);
        }
        for (v, (_, pipeline)) in report.variants.iter().zip(&variants) {
            for (r, p) in v.reports.iter().zip(&properties) {
                let what = format!("fleet {} {p:?}", v.variant);
                match r.verdict() {
                    Some(verdict) => {
                        oracle.judge(&what, pipeline, p, verdict, Some(Answer::Proved))
                    }
                    None => oracle.error(&what, "no verdict"),
                }
            }
        }
    }
    if params.trace {
        layers.wall_ms = wall_ms.iter().sum();
        layers.trace_overhead_ms = ms(tracer.overhead());
        layers.spans = tracer.spans() as u64;
        layers.emit(&mut run);
        // The split between hits and misses depends on which worker
        // reaches a stage first; only their sum repeats.
        run.counts.insert(
            "summary.lookups",
            layers.summary_hits + layers.summary_misses,
        );
        run.trace_json = Some(tracer.to_json());
    } else {
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", median(&wall_ms) / 1e3, "s");
        run.samples.insert("wall_s", wall_ms.len());
        latency_metrics(&mut run, &latencies, &latencies);
        run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    oracle.finish(&mut run);
    run
}

/// Per-variant verdict latency: the step 1 plus step 2 of the
/// variant's tasks. (Per task, crash-freedom and bounded-execution
/// form two clusters whose boundary the median would straddle.)
fn variant_ms(report: &FleetReport) -> Vec<f64> {
    report
        .variants
        .iter()
        .map(|v| {
            v.reports
                .iter()
                .filter_map(|r| r.as_verify())
                .map(|r| ms(r.step1_time + r.step2_time))
                .sum()
        })
        .collect()
}

/// Accounts one run from outside: the `Fleet::run` span, one child per
/// task carrying the task's report counters, and the pool's idle time
/// (`THREADS` × the run's own clock − Σ task time). Time outside the
/// run's own clock is the unattributed remainder.
fn trace_run(
    report: &FleetReport,
    t_run: std::time::Instant,
    outer: std::time::Duration,
    variants: &[(String, Pipeline)],
    layers: &mut Layers,
    tracer: &mut Tracer,
) {
    let id = tracer.span(
        None,
        "Fleet::run",
        t_run,
        outer,
        vec![
            ("summary_hits", report.summary_hits),
            ("summary_misses", report.summary_misses),
        ],
    );
    let mut tasks = 0.0;
    for v in &report.variants {
        for r in v.reports.iter().filter_map(|r| r.as_verify()) {
            layers.step1_ms += ms(r.step1_time);
            layers.states += r.step1_states as u64;
            layers.segments += r.step1_segments as u64;
            layers.add_search(r);
            tasks += ms(r.step1_time + r.step2_time);
            // Task start times are not observable from outside the
            // pool; task spans are anchored at the run's start.
            tracer.span(
                Some(id),
                format!("task({}, {})", v.variant, r.property),
                t_run,
                r.step1_time + r.step2_time,
                vec![
                    ("step1_us", r.step1_time.as_micros() as u64),
                    ("step2_us", r.step2_time.as_micros() as u64),
                    ("queries", r.solver.queries),
                ],
            );
        }
    }
    layers.task_ms += tasks;
    layers.idle_ms += THREADS as f64 * ms(report.time) - tasks;
    layers.summary_hits += report.summary_hits;
    layers.summary_misses += report.summary_misses;
    layers.evictions += report.evictions;
    let cfg = fig_verify_config();
    let mut seen = std::collections::HashSet::new();
    let elements: Vec<_> = variants
        .iter()
        .flat_map(|(_, p)| distinct_elements(p, MapMode::Abstract, &cfg.sym))
        .filter(|e| seen.insert(verifier::SummaryKey::of(e, MapMode::Abstract, &cfg.sym)))
        .collect();
    layers.time_stages(elements, MapMode::Abstract, &cfg);
}
