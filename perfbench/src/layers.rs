//! Per-layer accounting: times taken around calls into each layer and
//! the counters its reports carry, turned into the per-layer metrics.

use crate::{ms, ratio, Run};
use std::time::{Duration, Instant};
use verifier::{
    MapMode, PipelineSummaries, Property, SummaryKey, Verdict, Verifier, VerifyConfig, VerifyReport,
};

/// Everything the traced run accumulates for one workload.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Traced wall time: the sum of the request spans.
    pub wall_ms: f64,
    /// Worker threads the wall time is multiplied by for the budget.
    pub threads: usize,
    /// Step 1 (symbolic execution, store lookup, rebase).
    pub step1_ms: f64,
    /// Step 2 (the search).
    pub step2_ms: f64,
    /// Step 2 of checks that ended `Proved`.
    pub proved_ms: f64,
    /// Step 2 of checks that ended `Disproved` (includes canonical
    /// counterexample extraction).
    pub disproved_ms: f64,
    /// Churn engine time outside step 1 and step 2.
    pub apply_ms: f64,
    /// Pool time in which no task ran (fleet only).
    pub idle_ms: f64,
    /// Summed task time (fleet only).
    pub task_ms: f64,
    /// Each distinct executed stage timed alone.
    pub stage_ms_sum: f64,
    /// The slowest such stage.
    pub stage_ms_max: f64,
    /// Symbolic states of the step-1 builds.
    pub states: u64,
    /// Segments of the step-1 builds.
    pub segments: u64,
    /// Suspect segments, per check.
    pub suspects: u64,
    /// Summary-store hits.
    pub summary_hits: u64,
    /// Summary-store misses.
    pub summary_misses: u64,
    /// Summary-store evictions.
    pub evictions: u64,
    /// Step-2 solver queries.
    pub queries: u64,
    /// Paths composed in step 2.
    pub composed_paths: u64,
    /// Queries decided by simplification.
    pub by_simplify: u64,
    /// Queries decided by interval reasoning.
    pub by_interval: u64,
    /// Queries decided by bit-blasting.
    pub by_blast: u64,
    /// Bit-blast cache hits.
    pub blast_hits: u64,
    /// Bit-blast cache misses.
    pub blast_misses: u64,
    /// Term-pool compactions.
    pub compactions: u64,
    /// CDCL solve calls.
    pub sat_calls: u64,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL propagations.
    pub propagations: u64,
    /// Learnt clauses reused across queries.
    pub learnt_reused: u64,
    /// UNSAT cores learned.
    pub cores_learned: u64,
    /// Queries skipped by core subsumption.
    pub core_hits: u64,
    /// Continuation subtrees cut by cores.
    pub subtrees_pruned: u64,
    /// Time spent recording spans.
    pub trace_overhead_ms: f64,
    /// Spans recorded.
    pub spans: u64,
}

/// The map mode a property's summaries are built in.
pub fn mode_of(p: &Property) -> MapMode {
    match p {
        Property::Filter(_) => MapMode::Tables,
        _ => MapMode::Abstract,
    }
}

impl Layers {
    /// Adds one step-2 search's report: its step-2 time, split by
    /// verdict, and the solver and core counters. Step 1 is accounted
    /// by the caller, which knows who built the summaries.
    pub fn add_search(&mut self, r: &VerifyReport) {
        let t = ms(r.step2_time);
        self.step2_ms += t;
        match r.verdict {
            Verdict::Proved => self.proved_ms += t,
            Verdict::Disproved(_) => self.disproved_ms += t,
            Verdict::Unknown(_) => {}
        }
        self.suspects += r.suspects as u64;
        self.composed_paths += r.composed_paths as u64;
        let s = &r.solver;
        self.queries += s.queries;
        self.by_simplify += s.by_simplify;
        self.by_interval += s.by_interval;
        self.by_blast += s.by_blast;
        self.blast_hits += s.blast_cache_hits;
        self.blast_misses += s.blast_cache_misses;
        self.compactions += s.compactions;
        self.sat_calls += s.sat_solve_calls;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.learnt_reused += s.learnt_reused;
        self.cores_learned += r.cores.cores_learned;
        self.core_hits += r.cores.core_hits;
        self.subtrees_pruned += r.cores.subtrees_pruned;
    }

    /// Adds the states, segments and store counters of one step-1
    /// build.
    pub fn add_build(&mut self, sums: &PipelineSummaries) {
        self.states += sums.total_states as u64;
        self.summary_hits += sums.summary_hits as u64;
        self.summary_misses += sums.summary_misses as u64;
        self.segments += sums
            .stages
            .iter()
            .map(|s| s.segments.len() as u64)
            .sum::<u64>();
    }

    /// Times step 1 of each of `elements` alone — each as a one-stage
    /// pipeline in a fresh session — and adds the times to the stage
    /// sum and maximum. Callers pass each distinct element they expect
    /// the layer to have executed. Returns the one-stage builds'
    /// `(states, segments)`.
    pub fn time_stages<'a>(
        &mut self,
        elements: impl IntoIterator<Item = &'a dataplane::Element>,
        mode: MapMode,
        cfg: &VerifyConfig,
    ) -> (u64, u64) {
        let (mut states, mut segments) = (0, 0);
        for e in elements {
            let p = dataplane::Pipeline::new(&e.name).push_sink(e.clone());
            let mut v = Verifier::new(&p).config(cfg.clone());
            let t0 = Instant::now();
            let built = v
                .summaries(mode)
                .map(|s| (s.total_states, s.stages[0].segments.len()));
            let t = ms(t0.elapsed());
            if let Ok((st, sg)) = built {
                states += st as u64;
                segments += sg as u64;
            }
            self.stage_ms_sum += t;
            self.stage_ms_max = self.stage_ms_max.max(t);
        }
        (states, segments)
    }

    /// The remainder of the time budget no named part covers.
    fn unattributed_ms(&self) -> f64 {
        self.budget_ms() - self.step1_ms - self.step2_ms - self.apply_ms - self.idle_ms
    }

    /// The time budget the parts sum to: traced wall time times the
    /// worker threads.
    fn budget_ms(&self) -> f64 {
        self.wall_ms * self.threads.max(1) as f64
    }

    /// The counts that must repeat exactly for one seed (schedule- and
    /// time-dependent values excluded).
    fn counts(&self, run: &mut Run) {
        for (name, v) in [
            ("symexec.states", self.states),
            ("symexec.segments", self.segments),
            ("symexec.suspects", self.suspects),
            ("step2.queries", self.queries),
            ("step2.composed_paths", self.composed_paths),
            ("bv.by_simplify", self.by_simplify),
            ("bv.by_interval", self.by_interval),
            ("bv.by_blast", self.by_blast),
            ("bv.compactions", self.compactions),
            ("sat.solve_calls", self.sat_calls),
            ("sat.decisions", self.decisions),
            ("sat.propagations", self.propagations),
            ("sat.learnt_reused", self.learnt_reused),
            ("cores.learned", self.cores_learned),
            ("cores.hits", self.core_hits),
            ("cores.subtrees_pruned", self.subtrees_pruned),
        ] {
            run.counts.insert(name, v);
        }
    }

    /// Emits the per-layer metrics and the work counts. Metrics only a
    /// workload knows (the churn ones) are added by the workload; the
    /// printer reports the rest that do not apply as 0.
    pub fn emit(&self, run: &mut Run) {
        let budget = self.budget_ms();
        let blast_lookups = (self.blast_hits + self.blast_misses) as f64;
        for (name, value, unit) in [
            ("step1.ms", self.step1_ms, "ms"),
            ("step1.share", ratio(self.step1_ms, budget), "ratio"),
            ("symexec.states", self.states as f64, "count"),
            ("symexec.segments", self.segments as f64, "count"),
            ("symexec.suspects", self.suspects as f64, "count"),
            ("symexec.stage_ms_sum", self.stage_ms_sum, "ms"),
            ("symexec.stage_ms_max", self.stage_ms_max, "ms"),
            (
                "summary.overhead_ms",
                self.step1_ms - self.stage_ms_sum,
                "ms",
            ),
            ("summary.hits", self.summary_hits as f64, "count"),
            ("summary.misses", self.summary_misses as f64, "count"),
            (
                "summary.hit_ratio",
                ratio(
                    self.summary_hits as f64,
                    (self.summary_hits + self.summary_misses) as f64,
                ),
                "ratio",
            ),
            ("summary.evictions", self.evictions as f64, "count"),
            ("step2.ms", self.step2_ms, "ms"),
            ("step2.share", ratio(self.step2_ms, budget), "ratio"),
            ("step2.queries", self.queries as f64, "count"),
            ("step2.composed_paths", self.composed_paths as f64, "count"),
            ("step2.proved_ms", self.proved_ms, "ms"),
            ("step2.disproved_ms", self.disproved_ms, "ms"),
            (
                "step2.ms_per_query",
                ratio(self.step2_ms, self.queries as f64),
                "ms",
            ),
            ("bv.by_simplify", self.by_simplify as f64, "count"),
            ("bv.by_interval", self.by_interval as f64, "count"),
            ("bv.by_blast", self.by_blast as f64, "count"),
            (
                "bv.blast_share",
                ratio(self.by_blast as f64, self.queries as f64),
                "ratio",
            ),
            (
                "bv.blast_cache_hit_ratio",
                ratio(self.blast_hits as f64, blast_lookups),
                "ratio",
            ),
            ("bv.compactions", self.compactions as f64, "count"),
            ("sat.solve_calls", self.sat_calls as f64, "count"),
            ("sat.decisions", self.decisions as f64, "count"),
            ("sat.propagations", self.propagations as f64, "count"),
            ("sat.learnt_reused", self.learnt_reused as f64, "count"),
            ("cores.learned", self.cores_learned as f64, "count"),
            ("cores.hits", self.core_hits as f64, "count"),
            (
                "cores.subtrees_pruned",
                self.subtrees_pruned as f64,
                "count",
            ),
            (
                "cores.hit_ratio",
                ratio(
                    self.core_hits as f64,
                    (self.core_hits + self.queries) as f64,
                ),
                "ratio",
            ),
            ("fleet.task_ms", self.task_ms, "ms"),
            ("fleet.idle_ms", self.idle_ms, "ms"),
            ("fleet.idle_frac", ratio(self.idle_ms, budget), "ratio"),
            ("churn.apply_ms", self.apply_ms, "ms"),
            ("unattributed.ms", self.unattributed_ms(), "ms"),
            ("trace.wall_ms", self.wall_ms, "ms"),
            ("trace.budget_ms", budget, "ms"),
            ("trace.overhead_ms", self.trace_overhead_ms, "ms"),
            ("trace.spans", self.spans as f64, "count"),
        ] {
            run.metric(name, value, unit);
        }
        self.counts(run);
    }
}

/// The pipeline's elements with distinct step-1 keys in `mode`, in
/// stage order: what a cold build has to execute.
pub fn distinct_elements<'p>(
    pipeline: &'p dataplane::Pipeline,
    mode: MapMode,
    sym: &symexec::SymConfig,
) -> Vec<&'p dataplane::Element> {
    let mut seen = std::collections::HashSet::new();
    pipeline
        .stages
        .iter()
        .map(|s| &s.element)
        .filter(|e| seen.insert(SummaryKey::of(e, mode, sym)))
        .collect()
}

/// Wall time of `f`, for spans taken around a layer call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}
