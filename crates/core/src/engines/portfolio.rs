//! The racing engine portfolio (`Engine::Portfolio`).
//!
//! The paper's own Table I is the motivation: no single engine dominates —
//! BMC wins on failing properties, the interpolation-sequence variants on
//! shallow proofs, PDR on large designs with small inductive invariants.
//! This module turns that observation into a mode: the entrants of
//! [`ENTRANTS`] race on worker threads, the first *conclusive* verdict
//! wins, and the losers are cancelled through their [`CancelToken`]s (each
//! engine polls its token in its main loop and hands the flag to its SAT
//! solvers, so even a query mid-flight stops within a bounded number of
//! conflicts).
//!
//! # Determinism
//!
//! Racing decides *when* engines stop, never *what* they answer:
//!
//! * all entrants agree on `Falsified` depths — every engine in this
//!   workspace reports depth-minimal counterexamples (checked by the
//!   engine-agreement suite), so a falsifying portfolio verdict is the
//!   same no matter who wins the race;
//! * conclusive verdict *kinds* agree by soundness — an engine never
//!   proves a failing property or falsifies a holding one;
//! * the adopted result is chosen by fixed entrant precedence among the
//!   conclusive finishers, not by arrival order, so the `Proved`
//!   bookkeeping (`k_fp`, `j_fp`) is as stable as the race allows.
//!
//! A cancelled loser returns `Inconclusive("cancelled")`, which is never
//! adopted over a conclusive result.
//!
//! # Thread budget
//!
//! [`Options::threads`] is the worker budget with the usual convention
//! (`0` = ask the machine, `1` = sequential, `n` = exactly `n`).  The
//! race itself always runs one thread per entrant — that is what a
//! portfolio *is* — but the budget decides how much parallelism the
//! entrants get internally: whatever exceeds the racing threads feeds
//! PDR's parallel per-frame propagation and generalization (see
//! [`crate::engines::pdr`]).  With the default budget of 1, every
//! entrant runs its deterministic sequential reference.
//!
//! # Multiple properties
//!
//! `Engine::Portfolio.verify_all` does *not* loop this race per
//! property: [`crate::multi::scheduler`] groups the properties by
//! cone-of-influence overlap and races the amortized multi-PDR and
//! multi-BMC backends per group, with per-property retirement across
//! the race.

use crate::engines::CancelToken;
use crate::{Engine, EngineResult, Options, StopReason, Verdict};
use aig::Aig;
use std::cmp::Reverse;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use telemetry::ArgValue;

/// The racing lineup, in adoption-precedence order: PDR (the strongest
/// prover), ITPSEQCBA (the paper's best interpolation engine), BMC (the
/// fastest falsifier).
pub(crate) const ENTRANTS: [Engine; 3] = [Engine::Pdr, Engine::ItpSeqCba, Engine::Bmc];

/// Races the [`ENTRANTS`] on bad-state property `bad_index`; the first
/// conclusive verdict wins and the losers are cancelled.  Cancelling the
/// outer token `cancel` cancels every entrant.
pub(crate) fn run(
    aig: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let start = Instant::now();
    let telemetry = &options.telemetry;
    let _race = telemetry.span_args("portfolio.race", || {
        vec![
            ("entrants", ArgValue::U64(ENTRANTS.len() as u64)),
            ("bad", ArgValue::U64(bad_index as u64)),
        ]
    });
    let budget = options.effective_threads();
    // One racing thread per entrant; what remains feeds PDR's parallel
    // frame phases.
    let pdr_workers = budget.saturating_sub(ENTRANTS.len() - 1).max(1);
    let tokens: Vec<CancelToken> = ENTRANTS.iter().map(|_| CancelToken::new()).collect();
    let configs: Vec<Options> = ENTRANTS
        .iter()
        .map(|&engine| {
            let threads = if engine == Engine::Pdr {
                pdr_workers
            } else {
                1
            };
            // Each entrant traces onto its own named track, so a Chrome
            // trace shows the race as parallel per-entrant timelines.
            options
                .clone()
                .with_threads(threads)
                .with_telemetry(telemetry.scoped(engine.name()))
        })
        .collect();

    // An already-cancelled outer token must reach the entrants *before*
    // they start: otherwise a fast entrant could race to a conclusive
    // verdict inside the first poll interval of the loop below.
    if cancel.is_cancelled() {
        for token in &tokens {
            token.cancel();
        }
    }

    let (tx, rx) = mpsc::channel::<(usize, EngineResult)>();
    let collected: Vec<Option<EngineResult>> = std::thread::scope(|scope| {
        for (slot, &engine) in ENTRANTS.iter().enumerate() {
            let tx = tx.clone();
            let token = tokens[slot].clone();
            let config = &configs[slot];
            telemetry.instant_args("entrant.start", || {
                vec![("entrant", ArgValue::Str(engine.name().to_string()))]
            });
            scope.spawn(move || {
                // Entrants run directly on `aig`: the staged pipeline
                // entry already preprocessed the model once for the
                // whole race.
                let result = engine.dispatch(aig, bad_index, config, &token);
                let _ = tx.send((slot, result));
            });
        }
        drop(tx);
        let mut collected: Vec<Option<EngineResult>> = vec![None; ENTRANTS.len()];
        let mut pending = ENTRANTS.len();
        let mut decided = false;
        while pending > 0 {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok((slot, result)) => {
                    pending -= 1;
                    telemetry.instant_args("entrant.done", || {
                        vec![
                            ("entrant", ArgValue::Str(ENTRANTS[slot].name().to_string())),
                            ("verdict", ArgValue::Str(result.verdict.to_string())),
                        ]
                    });
                    if !decided && result.verdict.is_conclusive() {
                        decided = true;
                        telemetry.instant_args("entrant.cancel", || {
                            vec![(
                                "first_conclusive",
                                ArgValue::Str(ENTRANTS[slot].name().to_string()),
                            )]
                        });
                        for token in &tokens {
                            token.cancel();
                        }
                    }
                    collected[slot] = Some(result);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if cancel.is_cancelled() {
                        for token in &tokens {
                            token.cancel();
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        collected
    });

    // A race in which *every* entrant faulted has no meaningful "furthest"
    // entrant to adopt: report one machine-readable Inconclusive carrying
    // the per-entrant panic reasons, with no winner tagged (the aggregated
    // stats still cover all entrants).
    let all_faulted = !collected.is_empty()
        && collected.iter().all(|slot| {
            matches!(
                slot.as_ref().map(|r| &r.verdict),
                Some(Verdict::Inconclusive {
                    reason: StopReason::Panic(_),
                    ..
                })
            )
        });
    if all_faulted {
        let mut stats = crate::EngineStats {
            visible_latches: aig.num_latches(),
            ..Default::default()
        };
        let mut reasons = Vec::new();
        for (slot, result) in collected.iter().enumerate() {
            let result = result.as_ref().expect("all_faulted checked every slot");
            stats.absorb(&result.stats);
            if let Verdict::Inconclusive { reason, .. } = &result.verdict {
                reasons.push(format!("{}: {}", ENTRANTS[slot].name(), reason));
            }
        }
        stats.time = start.elapsed();
        let reason = StopReason::other(reasons.join("; "));
        telemetry.instant_args("entrant.all_faulted", || {
            vec![("reason", ArgValue::Str(reason.to_string()))]
        });
        return EngineResult {
            verdict: Verdict::Inconclusive {
                reason,
                bound_reached: 0,
            },
            stats,
            certificate: None,
        };
    }

    // Adopt by fixed entrant precedence: first the conclusive results,
    // otherwise the inconclusive entrant that got furthest.
    let adopted = ENTRANTS
        .iter()
        .enumerate()
        .filter_map(|(slot, &engine)| {
            collected[slot]
                .as_ref()
                .map(|result| (slot, engine, result.clone()))
        })
        .filter(|(_, _, result)| result.verdict.is_conclusive())
        .map(|(_, engine, result)| (engine, result))
        .next()
        .or_else(|| {
            ENTRANTS
                .iter()
                .enumerate()
                .filter_map(|(slot, &engine)| {
                    collected[slot]
                        .as_ref()
                        .map(|result| (slot, engine, result.clone()))
                })
                .max_by_key(|(slot, _, result)| {
                    let bound = match &result.verdict {
                        Verdict::Inconclusive { bound_reached, .. } => *bound_reached,
                        _ => 0,
                    };
                    (bound, Reverse(*slot))
                })
                .map(|(_, engine, result)| (engine, result))
        });

    match adopted {
        Some((engine, mut result)) => {
            telemetry.instant_args("entrant.win", || {
                vec![
                    ("entrant", ArgValue::Str(engine.name().to_string())),
                    ("verdict", ArgValue::Str(result.verdict.to_string())),
                ]
            });
            result.stats.winner = Some(engine.name());
            result.stats.time = start.elapsed();
            result
        }
        None => EngineResult {
            verdict: Verdict::Inconclusive {
                reason: StopReason::other("portfolio: every entrant failed to report"),
                bound_reached: 0,
            },
            stats: crate::EngineStats {
                time: start.elapsed(),
                visible_latches: aig.num_latches(),
                ..Default::default()
            },
            certificate: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::counter::modular;

    /// Runs the portfolio on property 0 of `aig`, with no preprocessing.
    fn verify(aig: &Aig, options: &Options) -> EngineResult {
        Engine::Portfolio.run(aig, 0, options, &CancelToken::new())
    }

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(20))
            .with_max_bound(40)
    }

    #[test]
    fn proves_and_tags_the_winner() {
        let aig = modular(3, 6, 7);
        // Sequential entrants (the default budget) and the auto budget
        // (parallel PDR entrant) must both prove and tag a winner.
        for budget in [1usize, 0] {
            let result = verify(&aig, &options().with_threads(budget));
            assert!(result.verdict.is_proved(), "{}", result.verdict);
            let winner = result.stats.winner.expect("portfolio tags its winner");
            assert!(ENTRANTS.iter().any(|e| e.name() == winner));
        }
    }

    #[test]
    fn falsifies_at_the_minimal_depth() {
        for bad_at in [1u64, 4, 8] {
            let aig = modular(4, 10, bad_at);
            let result = verify(&aig, &options());
            assert_eq!(
                result.verdict,
                Verdict::Falsified {
                    depth: bad_at as usize
                },
                "bad_at = {bad_at}"
            );
        }
    }

    #[test]
    fn detects_depth_zero_violations() {
        let aig = modular(3, 6, 0);
        let result = verify(&aig, &options());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 0 });
    }

    #[test]
    fn outer_cancellation_stops_every_entrant() {
        let aig = modular(5, 28, 31);
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = Engine::Portfolio.run(&aig, 0, &options(), &cancel);
        assert!(
            matches!(result.verdict, Verdict::Inconclusive { .. }),
            "{}",
            result.verdict
        );
    }

    #[test]
    fn agrees_with_the_sequential_reference() {
        for bad_at in 1..8u64 {
            let aig = modular(3, 6, bad_at);
            let reference = Engine::Pdr.verify(&aig, 0, &options());
            let raced = verify(&aig, &options());
            assert_eq!(
                reference.verdict.is_proved(),
                raced.verdict.is_proved(),
                "bad_at = {bad_at}: {} vs {}",
                reference.verdict,
                raced.verdict
            );
            if let Verdict::Falsified { depth } = reference.verdict {
                assert_eq!(raced.verdict, Verdict::Falsified { depth });
            }
        }
    }
}
