//! `churn`: closed loop, one control plane that waits for each verdict
//! before its next push. `dpv-serve`'s `firewalled-edge` workload (three
//! properties) runs in a `ChurnSession` at `dpv-serve`'s default
//! `ReuseLevel::Sessions`, one `apply_delta` per update. A run streams
//! into six sessions in turn, each with its own relabeling of the
//! stream.

use crate::inputs::{churn_config, churn_stream, firewalled_edge_properties, Answer};
use crate::layers::{timed, Layers};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::{guarded, latency_metrics, ms, peak_rss_mb, ratio, rss_mb, timed_setup, Params, Run};
use dataplane::TableDelta;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use verifier::{ChurnSession, MapMode, Property, ReuseLevel, UpdateReport, Verdict, Verifier};

/// How many update streams one run applies, and how long they are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sessions, each fed its own stream, one after the other.
    pub streams: usize,
    /// Updates per stream.
    pub updates: usize,
    /// Updates per stream whose verdicts are compared with a fresh
    /// `Verifier`.
    pub oracle_samples: usize,
}

impl Size {
    /// The size for a `seconds`-long measurement. The stream length
    /// does not shrink with `--seconds`: the latency drift shows only
    /// after hundreds of updates. Past about 300 updates per session the
    /// same work ran up to 2x faster or slower from one run to the next
    /// on a shared 2-core host, so a run pools six 300-update sessions.
    pub fn for_seconds(_seconds: u64) -> Self {
        Size {
            streams: 6,
            updates: 300,
            oracle_samples: 5,
        }
    }
}

/// Updates per drift bucket.
pub const BUCKET: usize = 100;

/// Per-bucket sums along the streams: the drift record.
#[derive(Debug, Default, Clone)]
struct Bucket {
    updates: usize,
    latency_ms: f64,
    step2_ms: f64,
    queries: u64,
    cores_learned: u64,
    rss_mb: f64,
    rss_samples: usize,
}

/// What the streams of one run add up to.
#[derive(Default)]
struct Totals {
    oracle: Oracle,
    layers: Layers,
    tracer: Tracer,
    latencies: Vec<f64>,
    late: Vec<f64>,
    buckets: Vec<Bucket>,
    checks: u64,
    replayed: u64,
    reexecuted: u64,
    rebased: u64,
    cores_live: u64,
    rss_growth_mb: f64,
    /// `(step-2 ms, queries)` over the first and the last tenth of
    /// every stream.
    split: [(f64, u64); 2],
}

/// Runs the workload.
pub fn run(params: &Params, size: Size) -> Run {
    let properties = firewalled_edge_properties();
    let setup = |seed: u64| {
        let (pipeline, deltas) = churn_stream(seed, size.updates);
        let mut session = ChurnSession::new(
            pipeline,
            properties.clone(),
            churn_config(),
            ReuseLevel::Sessions,
        )
        .expect("search-based properties only");
        let initial = session.verify();
        (session, initial, deltas)
    };
    let mut t = Totals {
        layers: Layers {
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut setup_s = 0.0;
    for i in 0..size.streams {
        let seed = params.seed ^ ((i as u64) << 32);
        let (session, initial, deltas) = if i == 0 {
            let (s, out) = timed_setup(|| setup(seed));
            setup_s = s;
            out
        } else {
            setup(seed)
        };
        let input = Stream {
            seed,
            session,
            initial,
            deltas,
        };
        stream(
            params.trace,
            size.oracle_samples,
            &properties,
            input,
            &mut t,
        );
    }
    let mut run = Run::default();
    run.counts.insert("churn.checks_replayed", t.replayed);
    run.counts.insert("churn.stages_reexecuted", t.reexecuted);
    run.counts.insert("churn.stages_rebased", t.rebased);
    run.counts.insert("cores.live", t.cores_live);
    run.drift = Some(drift_json(&t.buckets, size.streams));
    if params.trace {
        t.layers.wall_ms = t.latencies.iter().sum();
        t.layers.trace_overhead_ms = ms(t.tracer.overhead());
        t.layers.spans = t.tracer.spans() as u64;
        t.layers.emit(&mut run);
        let replayed_frac = ratio(t.replayed as f64, t.checks as f64);
        run.metric("churn.replayed_frac", replayed_frac, "ratio");
        let growth = t.rss_growth_mb / size.streams as f64;
        run.metric("churn.rss_growth_mb", growth, "MB");
        let [early, late] = t.split;
        run.metric(
            "churn.early_ms_per_query",
            ratio(early.0, early.1 as f64),
            "ms",
        );
        run.metric(
            "churn.late_ms_per_query",
            ratio(late.0, late.1 as f64),
            "ms",
        );
        run.trace_json = Some(t.tracer.to_json());
    } else {
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", t.latencies.iter().sum::<f64>() / 1e3, "s");
        run.samples.insert("wall_s", 1);
        latency_metrics(&mut run, &t.latencies, &t.late);
        run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    t.oracle.finish(&mut run);
    run
}

/// One session and the updates streamed into it.
struct Stream {
    /// The seed the stream was relabeled with.
    seed: u64,
    session: ChurnSession,
    /// The session's initial verification.
    initial: UpdateReport,
    deltas: Vec<TableDelta>,
}

/// Applies one stream to its session, one update at a time, and adds
/// what it measured to `t`. The session is dropped at the end.
fn stream(
    trace: bool,
    oracle_samples: usize,
    properties: &[Property],
    input: Stream,
    t: &mut Totals,
) {
    let Stream {
        seed,
        mut session,
        initial,
        deltas,
    } = input;
    let mut sample = BTreeSet::new();
    let mut r = StdRng::seed_from_u64(seed ^ 0x0C0E_0000);
    while sample.len() < oracle_samples.min(deltas.len()) {
        sample.insert((r.next_u64() % deltas.len() as u64) as usize);
    }
    judge(
        &mut t.oracle,
        &session,
        properties,
        "initial",
        &initial,
        true,
    );
    t.cores_live += initial
        .reports
        .iter()
        .map(|r| r.cores.cores_learned)
        .sum::<u64>();
    let tenth = (deltas.len() / 10).max(1);
    let mut rss_tenth = 0.0;
    for (k, delta) in deltas.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let (res, d) = timed(|| guarded(|| session.apply_delta(delta)));
        let lat = ms(d);
        t.latencies.push(lat);
        if k >= deltas.len() - tenth {
            t.late.push(lat);
        }
        let what = format!("update {}", k + 1);
        let u = match res {
            Ok(Ok(u)) => u,
            Ok(Err(e)) => {
                error_all(&mut t.oracle, properties, &what, &e.to_string());
                continue;
            }
            Err(e) => {
                error_all(&mut t.oracle, properties, &what, &e);
                continue;
            }
        };
        judge(
            &mut t.oracle,
            &session,
            properties,
            &what,
            &u,
            sample.contains(&k),
        );
        t.checks += u.reports.len() as u64;
        t.replayed += u.replayed.iter().filter(|&&r| r).count() as u64;
        t.reexecuted += u.stages_reexecuted as u64;
        t.rebased += u.stages_rebased as u64;
        let fresh: Vec<_> = u
            .reports
            .iter()
            .zip(&u.replayed)
            .filter(|(_, &r)| !r)
            .collect();
        let (queries, step2): (u64, f64) = fresh.iter().fold((0, 0.0), |(q, s), (r, _)| {
            (q + r.solver.queries, s + ms(r.step2_time))
        });
        let learned: u64 = fresh.iter().map(|(r, _)| r.cores.cores_learned).sum();
        t.cores_live += learned;
        if k / BUCKET >= t.buckets.len() {
            t.buckets.push(Bucket::default());
        }
        let b = &mut t.buckets[k / BUCKET];
        b.updates += 1;
        b.latency_ms += lat;
        b.step2_ms += step2;
        b.queries += queries;
        b.cores_learned += learned;
        if k + 1 == tenth {
            rss_tenth = rss_mb();
        }
        if (k + 1) % BUCKET == 0 || k + 1 == deltas.len() {
            b.rss_mb += rss_mb();
            b.rss_samples += 1;
        }
        if k < tenth {
            t.split[0].0 += step2;
            t.split[0].1 += queries;
        } else if k >= deltas.len() - tenth {
            t.split[1].0 += step2;
            t.split[1].1 += queries;
        }
        if trace {
            trace_update(&u, &session, t0, d, &mut t.layers, &mut t.tracer);
        }
    }
    t.rss_growth_mb += rss_mb() - rss_tenth;
}

fn error_all(oracle: &mut Oracle, properties: &[Property], what: &str, e: &str) {
    for p in properties {
        oracle.error(&format!("{what} {p:?}"), e);
    }
}

/// Judges one update's verdicts on the session's current pipeline:
/// every counterexample replays; on sampled updates each verdict must
/// equal a fresh `Verifier`'s on the same pipeline.
fn judge(
    oracle: &mut Oracle,
    session: &ChurnSession,
    properties: &[Property],
    what: &str,
    u: &UpdateReport,
    sampled: bool,
) {
    let pipeline = session.pipeline();
    let answers: Vec<Option<Answer>> = if sampled {
        Verifier::new(pipeline)
            .config(churn_config())
            .check_all(properties)
            .iter()
            .map(|r| match r.verdict() {
                Some(Verdict::Proved) => Some(Answer::Proved),
                Some(Verdict::Disproved(_)) => Some(Answer::Disproved),
                _ => None,
            })
            .collect()
    } else {
        vec![None; properties.len()]
    };
    for ((p, r), answer) in properties.iter().zip(&u.reports).zip(answers) {
        oracle.judge(&format!("{what} {p:?}"), pipeline, p, &r.verdict, answer);
    }
}

/// Accounts one update from outside: the `apply_delta` span with the
/// update report's step-1 / step-2 / engine split as children, and each
/// re-executed stage timed alone.
fn trace_update(
    u: &UpdateReport,
    session: &ChurnSession,
    t0: std::time::Instant,
    outer: std::time::Duration,
    layers: &mut Layers,
    tracer: &mut Tracer,
) {
    let apply = u.total_time.saturating_sub(u.step1_time + u.step2_time);
    layers.step1_ms += ms(u.step1_time);
    layers.apply_ms += ms(apply);
    layers.summary_hits += u.stages_rebased as u64;
    layers.summary_misses += u.stages_reexecuted as u64;
    let id = tracer.span(
        None,
        "apply_delta",
        t0,
        outer,
        vec![
            ("stages_reexecuted", u.stages_reexecuted as u64),
            ("stages_rebased", u.stages_rebased as u64),
            ("replayed", u.replayed.iter().filter(|&&r| r).count() as u64),
        ],
    );
    tracer.span(Some(id), "step1", t0, u.step1_time, Vec::new());
    for (r, &replayed) in u.reports.iter().zip(&u.replayed) {
        if !replayed {
            layers.add_search(r);
            tracer.span(
                Some(id),
                format!("check({})", r.property),
                t0,
                r.step2_time,
                vec![
                    ("queries", r.solver.queries),
                    ("cores_learned", r.cores.cores_learned),
                ],
            );
        }
    }
    let pipeline = session.pipeline();
    let cfg = churn_config();
    let changed = u
        .touched
        .iter()
        .filter(|(_, changed)| *changed)
        .map(|&(k, _)| &pipeline.stages[k].element);
    let (states, segments) = layers.time_stages(changed, MapMode::Tables, &cfg);
    layers.states += states;
    layers.segments += segments;
}

/// The per-bucket drift record as a JSON array: means per update over
/// every stream, and the mean RSS at the bucket's end.
fn drift_json(buckets: &[Bucket], streams: usize) -> String {
    let mut out = String::from("[");
    for (i, b) in buckets.iter().enumerate() {
        let n = b.updates.max(1) as f64;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"updates\":\"{}-{}\",\"mean_ms\":{:.2},\"step2_ms_per_query\":{:.4},\
             \"queries_per_update\":{:.2},\"cores_learned\":{},\"rss_mb\":{:.1}}}",
            i * BUCKET + 1,
            i * BUCKET + b.updates / streams.max(1),
            b.latency_ms / n,
            ratio(b.step2_ms, b.queries as f64),
            b.queries as f64 / n,
            b.cores_learned,
            ratio(b.rss_mb, b.rss_samples as f64)
        );
    }
    out.push(']');
    out
}
