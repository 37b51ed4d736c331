//! The workloads' inputs, each a pure function of the seed: the audit
//! corpus, the fleet's FIB variants and the churn update stream.
//!
//! Every check in the audit corpus has an answer fixed without the
//! search: the figure pipelines' verdicts are asserted by the
//! repository's integration tests, and a generated pipeline's verdict
//! is the generator's `planted` flag. Checks whose answer is not known
//! are left out; [`EXCLUDED`] lists them.

use dataplane::{Pipeline, TableConfig, TableContents, TableDelta, TableOp};
use dpv_bench::fig_verify_config;
use dpv_bench::gen::{deep_pipeline_with, delta_stream, gen_verify_config, GenConfig};
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{
    edge_fib, ip_router, network_gateway, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP,
};
use elements::{check_ip_header::check_ip_header, classifier::classifier};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use verifier::{FilterProperty, Property, VerifyConfig};

/// The verdict a check must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The property holds.
    Proved,
    /// The property is violated; the counterexample must replay.
    Disproved,
}

/// One pipeline audit: a pipeline, its configuration and the checks
/// with their known answers.
pub struct Audit {
    /// The pipeline under audit.
    pub pipeline: Pipeline,
    /// The verifier configuration the answers were fixed under.
    pub cfg: VerifyConfig,
    /// `(property, answer)` in check order.
    pub checks: Vec<(Property, Answer)>,
}

/// Checks left out of the corpus because their answer is not known
/// without trusting the search, with the reason.
pub const EXCLUDED: &[&str] = &[
    "frag+ClickBug1 (with IPoptions) CrashFreedom under fig_verify_config: \
     the search returns Unknown (the fragmenter loop stays at its iteration \
     bound), so no verdict can be compared",
    "frag+ClickBug2 (with IPoptions) CrashFreedom: no test fixes the answer",
    "firewalled-edge Bounded{5000}: no test fixes the answer for this pipeline",
];

/// The edge router exactly as `tests/full_router.rs` builds it.
fn edge_router() -> Pipeline {
    to_pipeline(
        "edge",
        vec![
            classifier(),
            check_ip_header(false),
            elements::ether::drop_broadcasts(),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(2, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
            elements::ether::eth_rewrite([2, 0, 0, 0, 0, 0xEE], [2, 0, 0, 0, 0, 1]),
        ],
    )
}

/// The fragmenter pipeline of `tests/click_bugs.rs`, with IPoptions.
fn fragmenter(variant: FragmenterVariant) -> Pipeline {
    to_pipeline(
        "frag",
        vec![
            classifier(),
            check_ip_header(false),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            ip_fragmenter(variant, 40),
        ],
    )
}

/// The buggy NAT of `tests/click_bugs.rs` (Click bug #3).
fn buggy_nat() -> Pipeline {
    to_pipeline(
        "nat",
        vec![
            classifier(),
            check_ip_header(false),
            elements::nat::nat_click_buggy(NAT_PUBLIC_IP, NAT_PUBLIC_PORT, 64),
        ],
    )
}

/// `dpv-serve`'s `firewalled-edge` workload: the edge router carrying
/// the §5.2 firewall, with both an exact-match and an LPM table.
pub fn firewalled_edge() -> Pipeline {
    to_pipeline(
        "firewalled-edge",
        vec![
            classifier(),
            check_ip_header(false),
            elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
        ],
    )
}

/// `dpv-serve`'s property set for `firewalled-edge`.
pub fn firewalled_edge_properties() -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::Bounded { imax: 5_000 },
        Property::Filter(FilterProperty::src(0x0BAD_0001)),
    ]
}

/// The six figure pipelines, with the answers the integration tests
/// assert.
fn figure_audits() -> Vec<Audit> {
    use Answer::{Disproved, Proved};
    let audit = |pipeline, checks| Audit {
        pipeline,
        cfg: fig_verify_config(),
        checks,
    };
    vec![
        audit(
            edge_router(),
            vec![
                (Property::CrashFreedom, Proved),
                (Property::Bounded { imax: 10_000 }, Proved),
            ],
        ),
        audit(
            to_pipeline("gateway", network_gateway(5)),
            vec![
                (Property::CrashFreedom, Proved),
                (Property::Bounded { imax: 10_000 }, Proved),
            ],
        ),
        audit(
            fragmenter(FragmenterVariant::ClickBug1),
            vec![(Property::Bounded { imax: 5_000 }, Disproved)],
        ),
        audit(
            fragmenter(FragmenterVariant::ClickBug2),
            vec![(Property::Bounded { imax: 5_000 }, Proved)],
        ),
        audit(buggy_nat(), vec![(Property::CrashFreedom, Disproved)]),
        audit(
            firewalled_edge(),
            vec![
                (Property::CrashFreedom, Proved),
                (Property::Filter(FilterProperty::src(0x0BAD_0001)), Proved),
            ],
        ),
    ]
}

/// Generator seed of the audit's generated pipelines. It is fixed:
/// the generator's cost has a heavy tail (the slowest pipeline in a
/// hundred takes ten times the median), so a corpus drawn per workload
/// seed moves p90 and p99 by 30–50% from seed to seed, more than any
/// regression bound could absorb.
const AUDIT_GEN_SEED: u64 = 0xA0D1_7000;

/// The audit corpus: the six figure pipelines and `generated` 20-stage,
/// 2-round generator pipelines under crash-freedom, every third one
/// with a planted violation, in an order shuffled by `seed`.
pub fn audit_corpus(seed: u64, generated: usize) -> Vec<Audit> {
    let mut corpus = figure_audits();
    let mut r = StdRng::seed_from_u64(AUDIT_GEN_SEED);
    for i in 0..generated {
        let s = r.next_u64();
        let g = deep_pipeline_with(
            s,
            GenConfig {
                stages: 20,
                rounds: 2,
                plant_violation: i % 3 == 0,
            },
        );
        let answer = if g.planted {
            Answer::Disproved
        } else {
            Answer::Proved
        };
        corpus.push(Audit {
            pipeline: g.pipeline,
            cfg: gen_verify_config(),
            checks: vec![(Property::CrashFreedom, answer)],
        });
    }
    let mut r = StdRng::seed_from_u64(seed);
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
    }
    corpus
}

/// The fleet: `n` variants of the six-stage router that differ only in
/// FIB contents, drawn from `seed`. Every variant is crash-free and
/// bounded, as for the edge router of `tests/full_router.rs`.
pub fn fleet_variants(seed: u64, n: usize) -> Vec<(String, Pipeline)> {
    let mut r = StdRng::seed_from_u64(seed ^ 0xF1EE_7000);
    (0..n)
        .map(|i| {
            let a = r.next_u64() as u32;
            let fib = vec![
                (0x0A00_0000 | (a & 0x00FF_0000), 16, a % 4),
                (0x0A00_0000, 8, 0),
                (0xC0A8_0000 | (a >> 24), 32, (a >> 8) % 4),
            ];
            (
                format!("fib-{i}"),
                to_pipeline("router", ip_router(6, 2, fib)),
            )
        })
        .collect()
}

/// The fleet's property set.
pub fn fleet_properties() -> Vec<Property> {
    vec![Property::CrashFreedom, Property::Bounded { imax: 10_000 }]
}

/// Seed of the churn stream's schedule: which table each update
/// touches, with which kind of op. It is fixed: the latency drift
/// follows the table sizes the schedule sets, and schedules drawn per
/// workload seed moved the late latency by up to 50% from seed to
/// seed. The workload seed relabels the stream instead.
const CHURN_SCHEDULE_SEED: u64 = 0xC0FFEE;

/// The churn input: `firewalled-edge` and `updates` table deltas, the
/// fixed `delta_stream` schedule relabeled by `seed`.
pub fn churn_stream(seed: u64, updates: usize) -> (Pipeline, Vec<TableDelta>) {
    let pipeline = firewalled_edge();
    let relabel = Relabel::new(seed, &pipeline);
    let deltas = delta_stream(CHURN_SCHEDULE_SEED, &pipeline, updates)
        .into_iter()
        .map(|d| relabel.delta(d))
        .collect();
    (pipeline, deltas)
}

/// A seeded bijection on the keys, prefixes and values that a
/// `delta_stream` invents, leaving the pipeline's initial entries
/// untouched. Applied to every op of a stream, it preserves the
/// stream's shape — table sizes, which updates are no-ops, which
/// remove or overwrite an initial entry — while changing the contents.
struct Relabel {
    initial_keys: Vec<u64>,
    initial_routes: Vec<(u32, u32)>,
    key: u64,
    value: u64,
    prefix: u32,
    hop: u32,
}

impl Relabel {
    fn new(seed: u64, pipeline: &Pipeline) -> Self {
        let mut initial_keys = Vec::new();
        let mut initial_routes = Vec::new();
        for stage in &pipeline.stages {
            for (_, table) in &stage.element.tables {
                match table.contents() {
                    TableContents::Exact(es) => initial_keys.extend(es.iter().map(|e| e.0)),
                    TableContents::Lpm(rs) => initial_routes.extend(rs.iter().map(|r| (r.0, r.1))),
                }
            }
        }
        let mut r = StdRng::seed_from_u64(seed ^ 0xC4A2_0000);
        Relabel {
            initial_keys,
            initial_routes,
            // `delta_stream` draws fresh exact keys below 4096, values
            // below 16, route prefixes in 10..74 and next hops below 4;
            // XOR masks within those ranges keep every label in range.
            key: r.next_u64() % 4096,
            value: r.next_u64() % 16,
            prefix: (r.next_u64() % 64) as u32,
            hop: (r.next_u64() % 4) as u32,
        }
    }

    fn key(&self, k: u64) -> u64 {
        if self.initial_keys.contains(&k) {
            k
        } else {
            k ^ self.key
        }
    }

    fn entry(&self, (k, v): (u64, u64)) -> (u64, u64) {
        if self.initial_keys.contains(&k) {
            (k, v)
        } else {
            (k ^ self.key, v ^ self.value)
        }
    }

    fn prefix(&self, (p, l): (u32, u32)) -> (u32, u32) {
        if self.initial_routes.contains(&(p, l)) || !(10..74).contains(&p) {
            (p, l)
        } else {
            (10 + ((p - 10) ^ self.prefix), l)
        }
    }

    fn route(&self, (p, l, v): (u32, u32, u32)) -> (u32, u32, u32) {
        if self.initial_routes.contains(&(p, l)) {
            (p, l, v)
        } else {
            let (p, l) = self.prefix((p, l));
            (p, l, v ^ self.hop)
        }
    }

    fn delta(&self, d: TableDelta) -> TableDelta {
        let op = match d.op {
            TableOp::ExactInsert(es) => {
                TableOp::ExactInsert(es.into_iter().map(|e| self.entry(e)).collect())
            }
            TableOp::ExactRemove(ks) => {
                TableOp::ExactRemove(ks.into_iter().map(|k| self.key(k)).collect())
            }
            TableOp::LpmInsert(rs) => {
                TableOp::LpmInsert(rs.into_iter().map(|r| self.route(r)).collect())
            }
            TableOp::LpmRemove(ps) => {
                TableOp::LpmRemove(ps.into_iter().map(|p| self.prefix(p)).collect())
            }
            TableOp::Replace(t) => TableOp::Replace(match t.contents() {
                TableContents::Exact(es) => {
                    TableConfig::exact(es.iter().map(|&e| self.entry(e)).collect())
                }
                TableContents::Lpm(rs) => {
                    TableConfig::lpm(rs.iter().map(|&r| self.route(r)).collect())
                }
            }),
        };
        TableDelta::new(d.stage, d.map, op)
    }
}

/// The verifier configuration `dpv-serve` runs with.
pub fn churn_config() -> VerifyConfig {
    fig_verify_config()
}
