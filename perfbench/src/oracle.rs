//! The correctness oracle: concrete replay of counterexamples through
//! the `dataplane` interpreter, and comparison with known answers.
//! Everything here runs outside the timed region.

use crate::inputs::Answer;
use crate::Run;
use dataplane::{headers, Pipeline, PipelineOutcome, Runner};
use dpir::PacketData;
use elements::pipelines::build_all_stores;
use verifier::{Property, Verdict};

/// Oracle counters and the failures it found.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Checks whose verdict was judged.
    pub checks: u64,
    /// Counterexamples replayed concretely.
    pub replays: u64,
    /// Counterexamples that did not reproduce.
    pub replay_failures: u64,
    /// Checks that failed, with what went wrong.
    pub failures: Vec<String>,
}

impl Oracle {
    /// Judges one verdict: it must be decided, match `answer` when one
    /// is known, and a counterexample must reproduce on `pipeline`.
    pub fn judge(
        &mut self,
        what: &str,
        pipeline: &Pipeline,
        property: &Property,
        verdict: &Verdict,
        answer: Option<Answer>,
    ) {
        self.checks += 1;
        let got = match verdict {
            Verdict::Proved => Answer::Proved,
            Verdict::Disproved(cex) => {
                self.replays += 1;
                if let Err(e) = replay(pipeline, property, &cex.bytes) {
                    self.replay_failures += 1;
                    self.failures
                        .push(format!("{what}: counterexample {} {e}", cex.hex()));
                    return;
                }
                Answer::Disproved
            }
            Verdict::Unknown(reason) => {
                self.failures.push(format!("{what}: unknown ({reason})"));
                return;
            }
        };
        if let Some(want) = answer {
            if got != want {
                self.failures
                    .push(format!("{what}: got {got:?}, expected {want:?}"));
            }
        }
    }

    /// Hands the checks, replay counts and failures to `run`.
    pub fn finish(self, run: &mut Run) {
        run.attempted = self.checks;
        run.counts.insert("oracle.replays", self.replays);
        run.counts
            .insert("oracle.replay_failures", self.replay_failures);
        run.failures = self.failures;
    }

    /// Records a check that could not be judged (an error or a panic).
    pub fn error(&mut self, what: &str, error: &str) {
        self.checks += 1;
        self.failures.push(format!("{what}: {error}"));
    }
}

/// Runs `bytes` through a fresh concrete dataplane for `pipeline` and
/// checks that it violates `property`: a crash for crash-freedom, more
/// than `imax` instructions (or a stage out of fuel) for
/// bounded-execution, delivery on a sink of a matching packet for
/// filtering.
pub fn replay(pipeline: &Pipeline, property: &Property, bytes: &[u8]) -> Result<(), String> {
    let mut runner = Runner::new(pipeline.clone(), build_all_stores(pipeline));
    let mut pkt = PacketData::new(bytes.to_vec());
    let outcome = match property {
        Property::Filter(f) => {
            let matches = bytes.len() as u64 >= f.min_len.max(38)
                && f.src_ip.is_none_or(|a| headers::ip_src(&pkt) == a)
                && f.dst_ip.is_none_or(|a| headers::ip_dst(&pkt) == a);
            if !matches {
                return Err("does not match the filter pattern".into());
            }
            runner.run_packet(&mut pkt)
        }
        _ => runner.run_packet(&mut pkt),
    };
    let ok = match (property, &outcome) {
        (Property::CrashFreedom, PipelineOutcome::Crashed { .. }) => true,
        (Property::Bounded { .. }, PipelineOutcome::Stuck { .. }) => true,
        (Property::Bounded { imax }, _) => runner.stats().max_instrs_per_packet > *imax,
        (Property::Filter(_), PipelineOutcome::Delivered(_)) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("replays as {outcome:?}"))
    }
}
