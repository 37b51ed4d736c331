//! `audit`: closed loop, one client. Each request audits one pipeline
//! with a fresh single-threaded `Verifier` running every check of the
//! pipeline — cold step 1, no reuse between requests, many short
//! searches, a third of them disproofs.

use crate::inputs::{audit_corpus, Audit};
use crate::layers::{distinct_elements, mode_of, timed, Layers};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::{guarded, latency_metrics, median, ms, peak_rss_mb, timed_setup, Params, Run};
use std::time::Instant;
use verifier::{Property, Report, Verifier};

/// How much one run audits.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Generated pipelines in the corpus, besides the six figure ones.
    pub generated: usize,
    /// Passes over the corpus.
    pub passes: usize,
}

/// Seconds one pass over the full corpus takes on a 2-core x86-64
/// host; the pass count is fixed from it, so the work of a run depends
/// only on `--seconds`, never on the speed of the code measured.
const PASS_SECONDS: u64 = 10;

impl Size {
    /// The size for a `seconds`-long measurement.
    pub fn for_seconds(seconds: u64) -> Self {
        Size {
            generated: 200,
            passes: (seconds / PASS_SECONDS).max(1) as usize,
        }
    }
}

/// Runs the workload.
pub fn run(params: &Params, size: Size) -> Run {
    let (setup_s, corpus) = timed_setup(|| audit_corpus(params.seed, size.generated));
    let props: Vec<Vec<Property>> = corpus
        .iter()
        .map(|a| a.checks.iter().map(|(p, _)| p.clone()).collect())
        .collect();
    let mut run = Run::default();
    let mut oracle = Oracle::default();
    let mut layers = Layers {
        threads: 1,
        ..Default::default()
    };
    let mut tracer = Tracer::new();
    let mut latencies = Vec::new();
    let mut pass_ms = Vec::new();
    for _ in 0..size.passes {
        let mut pass = Vec::with_capacity(corpus.len());
        for (i, (audit, props)) in corpus.iter().zip(&props).enumerate() {
            let (reports, t) = if params.trace {
                traced_request(audit, props, &mut layers, &mut tracer)
            } else {
                timed(|| {
                    guarded(|| {
                        Verifier::new(&audit.pipeline)
                            .config(audit.cfg.clone())
                            .check_all(props)
                    })
                })
            };
            pass.push(ms(t));
            let what = format!("audit #{i} ({})", audit.pipeline.name);
            judge(&mut oracle, &what, audit, reports);
        }
        pass_ms.push(pass.iter().sum::<f64>());
        latencies.extend_from_slice(&pass);
    }
    if params.trace {
        layers.wall_ms = pass_ms.iter().sum();
        layers.trace_overhead_ms = ms(tracer.overhead());
        layers.spans = tracer.spans() as u64;
        layers.emit(&mut run);
        run.trace_json = Some(tracer.to_json());
    } else {
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", median(&pass_ms) / 1e3, "s");
        run.samples.insert("wall_s", pass_ms.len());
        latency_metrics(&mut run, &latencies, &latencies);
        run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    oracle.finish(&mut run);
    run
}

/// One request with spans: `request` → `summaries(mode)` for each map
/// mode the checks need → `check(property)` for each check. Step 1 is
/// the summaries spans; step 2 is what each check's report carries.
/// After the request span closes, each distinct stage is timed alone
/// for the step-1 split.
fn traced_request(
    audit: &Audit,
    props: &[Property],
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> (Result<Vec<Report>, String>, std::time::Duration) {
    let mut modes = Vec::new();
    for p in props {
        if !modes.contains(&mode_of(p)) {
            modes.push(mode_of(p));
        }
    }
    let mut children = Vec::new();
    let t_req = Instant::now();
    let out = guarded(|| {
        let mut v = Verifier::new(&audit.pipeline).config(audit.cfg.clone());
        for &mode in &modes {
            let t0 = Instant::now();
            if let Ok(sums) = v.summaries(mode) {
                layers.add_build(sums);
            }
            let d = t0.elapsed();
            layers.step1_ms += ms(d);
            children.push((format!("summaries({mode:?})"), t0, d, Vec::new()));
        }
        props
            .iter()
            .map(|p| {
                let t0 = Instant::now();
                let r = v.check(p.clone());
                let d = t0.elapsed();
                let mut counters = Vec::new();
                if let Some(vr) = r.as_verify() {
                    layers.add_search(vr);
                    counters = vec![
                        ("step2_us", vr.step2_time.as_micros() as u64),
                        ("queries", vr.solver.queries),
                        ("composed_paths", vr.composed_paths as u64),
                    ];
                }
                children.push((format!("check({})", r.property()), t0, d, counters));
                r
            })
            .collect::<Vec<_>>()
    });
    let d_req = t_req.elapsed();
    let id = tracer.span(None, "request", t_req, d_req, Vec::new());
    for (name, t0, d, counters) in children {
        tracer.span(Some(id), name, t0, d, counters);
    }
    for &mode in &modes {
        let elements = distinct_elements(&audit.pipeline, mode, &audit.cfg.sym);
        layers.time_stages(elements, mode, &audit.cfg);
    }
    (out, d_req)
}

/// Judges every check of one request against its known answer.
fn judge(oracle: &mut Oracle, what: &str, audit: &Audit, reports: Result<Vec<Report>, String>) {
    match reports {
        Ok(reports) => {
            for ((property, answer), report) in audit.checks.iter().zip(&reports) {
                let what = format!("{what} {property:?}");
                match report.verdict() {
                    Some(v) => oracle.judge(&what, &audit.pipeline, property, v, Some(*answer)),
                    None => oracle.error(&what, "no verdict"),
                }
            }
        }
        Err(e) => {
            for (property, _) in &audit.checks {
                oracle.error(&format!("{what} {property:?}"), &e);
            }
        }
    }
}
