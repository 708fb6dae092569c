//! Plain bounded model checking.
//!
//! BMC only ever falsifies properties; it is included both as the baseline
//! the interpolation engines are built on and because the paper repeatedly
//! contrasts the cost of the three target formulations (*bound-k*,
//! *exact-k*, *exact-assume-k*).
//!
//! # Incremental unrolling
//!
//! The bound loop runs on one persistent [`cnf::IncrementalUnroller`] and
//! one long-lived [`sat::IncrementalSolver`] per run: bound `k+1` extends
//! bound `k`'s solver with only the *delta* clauses of the new frame, so
//! total encoding work across a `max_bound = K` run is `O(K)` (the scratch
//! path re-encoded all `k` frames at every bound, `O(K²)`), and learned
//! clauses survive from bound to bound.  The per-bound targets become
//! incremental constraints:
//!
//! * **exact-k** — the target `¬p(V^k)` is passed as an *assumption*, so
//!   nothing has to be retracted at the next bound;
//! * **exact-assume-k** — same assumption, plus the permanent unit
//!   `p(V^{k-1})` once bound `k-1` is refuted (the property held there, so
//!   the constraint is sound for every later bound);
//! * **bound-k** — the growing disjunction `⋁_{i≤k} ¬p(V^i)` is asserted
//!   through a per-bound [assertion group](sat::IncrementalSolver::assert_group)
//!   whose activation literal is allocated by the *unroller* (one
//!   variable-numbering authority), retired when the bound grows.
//!
//! Verdicts and counterexample depths are identical to the scratch path by
//! construction — each bound solves an equisatisfiable formula, and the
//! loop still reports the first satisfiable bound (see the
//! scratch-vs-incremental cross-check in the tests).
//!
//! For designs with several bad-state properties, [`crate::multi::bmc`]
//! amortizes one unroller/solver pair across *all* of them (targets as
//! per-property assumptions, per-property retirement) instead of running
//! this engine once per property.

use crate::engines::{CancelToken, EngineProbe, RunBudget};
use crate::types::StopReason;
use crate::{Certificate, EngineResult, EngineStats, Options, Verdict};
use aig::Aig;
use cnf::{BmcCheck, IncrementalUnroller};
use sat::{IncrementalSolver, SolveResult, SolverStats};
use std::time::{Duration, Instant};
use telemetry::ArgValue;

/// Outcome of the depth-0 check every engine runs before its main loop.
enum Depth0 {
    /// The initial states themselves violate the property.
    Violated,
    /// No violation at depth 0; the main loop may start at bound 1.
    Safe,
    /// The check was interrupted (cancellation or deadline) before an
    /// answer.
    Interrupted,
}

/// Result and cost of a depth-0 check (see [`initial_violation`]).
struct Depth0Check {
    outcome: Depth0,
    /// Solver statistics of the check — callers fold the delta into
    /// [`EngineStats`] so table1 does not undercount.
    solver: SolverStats,
    /// Clauses handed to the solver.
    clauses: u64,
    /// Time spent encoding (not solving) the instance.
    encode_time: Duration,
    /// The violating cycle-0 input assignment when the check found one.
    inputs: Option<Vec<bool>>,
}

/// Checks whether a bad state is already reachable at depth 0, i.e. the
/// initial states themselves violate the property.  All engines run this
/// check before their main loops, which start at bound 1.
///
/// The run's `budget` (interrupt flag, memory budget, fault plan) governs
/// the solver, so even a hostile depth-0 instance stays cancellable.
fn initial_violation(
    aig: &Aig,
    bad_index: usize,
    budget: &RunBudget,
    reduce: Option<u64>,
) -> Depth0Check {
    let encode_start = Instant::now();
    let mut unroller = cnf::Unroller::new(aig);
    unroller.assert_initial(0);
    let bad = unroller.bad_lit(0, bad_index);
    unroller.assert_lit(bad);
    // Pin down the cycle-0 input variables before the unroller is consumed,
    // so a violating model can be read back as a replayable trace.  Inputs
    // outside the bad cone become fresh unconstrained variables; they add
    // no clauses and cannot change the verdict.
    let input_lits: Vec<cnf::Lit> = (0..aig.num_inputs())
        .map(|i| unroller.input_lit(0, i))
        .collect();
    let cnf = unroller.into_cnf();
    let mut solver = budget.solver();
    solver.set_proof_logging(false);
    solver.set_reduce_interval(reduce);
    solver.add_cnf(&cnf);
    let encode_time = encode_start.elapsed();
    let (outcome, inputs) = match solver.solve() {
        SolveResult::Sat => {
            let model = input_lits
                .iter()
                .map(|&lit| solver.lit_value(lit).unwrap_or(false))
                .collect();
            (Depth0::Violated, Some(model))
        }
        SolveResult::Unsat => (Depth0::Safe, None),
        SolveResult::Interrupted => (Depth0::Interrupted, None),
    };
    Depth0Check {
        outcome,
        solver: solver.stats(),
        clauses: cnf.clauses.len() as u64,
        encode_time,
        inputs,
    }
}

/// Runs the depth-0 check shared by every engine's entry point under the
/// run's budget flag, folds its costs into `stats`, and returns the final
/// verdict when the run is already decided: a violation at depth 0, or an
/// interrupt (whose reason — `"cancelled"` or `"timeout"` — is read off
/// the budget *after* the solve, so a cancellation arriving mid-check is
/// reported as such).  `None` means the initial states are safe and the
/// main loop may start.  A depth-0 falsification comes with its
/// single-cycle input trace as a [`Certificate::Trace`] (unless
/// [`Options::certificates`] is off).
pub(crate) fn depth0_verdict(
    aig: &Aig,
    bad_index: usize,
    budget: &RunBudget,
    stats: &mut EngineStats,
    options: &Options,
) -> Option<(Verdict, Option<Certificate>)> {
    let span = options
        .telemetry
        .span_args("depth0", || vec![("bad", ArgValue::U64(bad_index as u64))]);
    let depth0 = initial_violation(aig, bad_index, budget, options.reduce_interval());
    span.end();
    stats.sat_calls += 1;
    stats.add_solver_delta(depth0.solver);
    stats.clauses_encoded += depth0.clauses;
    stats.encode_time += depth0.encode_time;
    match depth0.outcome {
        Depth0::Violated => {
            let cert = depth0
                .inputs
                .filter(|_| options.certificates)
                .map(|frame| Certificate::Trace(vec![frame]));
            Some((Verdict::Falsified { depth: 0 }, cert))
        }
        Depth0::Interrupted => Some((
            Verdict::Inconclusive {
                reason: budget.interrupt_reason(),
                bound_reached: 0,
            },
            None,
        )),
        Depth0::Safe => None,
    }
}

/// The persistent state of an incremental BMC run: the unrolling cache,
/// the long-lived solver and the per-bound target bookkeeping.
struct IncrementalBmc {
    unroller: IncrementalUnroller,
    solver: IncrementalSolver,
    check: BmcCheck,
    bad_index: usize,
    /// Frames unrolled so far (`bads[f - 1]` is the bad literal at frame
    /// `f`).
    bound: usize,
    bads: Vec<cnf::Lit>,
    /// The live bound-k target group (bound-k formulation only).
    group: Option<sat::ClauseGuard>,
    /// `frame_inputs[f]` pins frame `f`'s primary-input variables so a
    /// counterexample model can be read back as a replayable trace.
    /// Empty when [`Options::certificates`] is off (the variables are
    /// then never allocated — the seed encoding, bit for bit).
    frame_inputs: Vec<Vec<cnf::Lit>>,
    num_inputs: usize,
    record_inputs: bool,
}

impl IncrementalBmc {
    fn new(
        aig: &Aig,
        bad_index: usize,
        check: BmcCheck,
        reduce: Option<u64>,
        budget: &RunBudget,
        record_inputs: bool,
        stats: &mut EngineStats,
    ) -> IncrementalBmc {
        let encode_start = Instant::now();
        let mut unroller = IncrementalUnroller::new(aig);
        unroller.assert_initial(0);
        let frame_inputs = if record_inputs {
            vec![(0..aig.num_inputs())
                .map(|i| unroller.input_lit(0, i))
                .collect()]
        } else {
            Vec::new()
        };
        let mut solver = budget.incremental_solver();
        // Recycling could only reclaim solver-allocated activation
        // variables, and this engine allocates all of its (unroller-owned)
        // variables itself — turn it off so the solver does not record a
        // replay copy of the whole unrolling.
        solver.set_recycle_threshold(0);
        solver.set_reduce_interval(reduce);
        stats.encode_time += encode_start.elapsed();
        IncrementalBmc {
            unroller,
            solver,
            check,
            bad_index,
            bound: 0,
            bads: Vec::new(),
            group: None,
            frame_inputs,
            num_inputs: aig.num_inputs(),
            record_inputs,
        }
    }

    /// Extends the unrolling and the solver by one frame and installs the
    /// next bound's target; returns the assumptions for its solve call.
    fn advance(&mut self, stats: &mut EngineStats) -> Vec<cnf::Lit> {
        let encode_start = Instant::now();
        let k = self.bound + 1;
        // The previous bound's target must not constrain this one.
        if let Some(guard) = self.group.take() {
            self.solver.retire(guard);
        }
        // assume-k: bound k-1 was refuted, so the property held there —
        // from now on `p(V^{k-1})` is a permanent constraint.
        if self.check == BmcCheck::ExactAssume && k >= 2 {
            let bad_prev = self.bads[k - 2];
            self.solver.add_clause([!bad_prev]);
            stats.clauses_encoded += 1;
        }
        self.unroller.add_frame();
        let bad = self.unroller.bad_lit(k, self.bad_index);
        self.bads.push(bad);
        if self.record_inputs {
            // Allocate frame k's input variables now, before the solve, so
            // reading a model back never disturbs variable numbering.
            let inputs = (0..self.num_inputs)
                .map(|i| self.unroller.input_lit(k, i))
                .collect();
            self.frame_inputs.push(inputs);
        }
        // Only the delta reaches the solver; everything older is already
        // loaded (and its learned clauses are still alive).
        for clause in self.unroller.pending_clauses() {
            self.solver.add_clause(clause.lits.iter().copied());
        }
        stats.clauses_encoded += self.unroller.pending_clauses().len() as u64;
        self.unroller.mark_drained();
        self.bound = k;
        let assumptions = match self.check {
            BmcCheck::Exact | BmcCheck::ExactAssume => vec![bad],
            BmcCheck::Bound => {
                // The growing disjunction is re-asserted under a fresh
                // activation literal — allocated by the unroller, so frame
                // variables and activation variables can never collide.
                let activation = self.unroller.builder_mut().new_lit();
                self.group = Some(self.solver.assert_group(activation, [self.bads.clone()]));
                stats.clauses_encoded += 1;
                Vec::new()
            }
        };
        stats.encode_time += encode_start.elapsed();
        assumptions
    }

    /// Reads the counterexample input trace (cycles `0..=depth`) off the
    /// solver's satisfying assignment.
    fn extract_trace(&self, depth: usize) -> Vec<Vec<bool>> {
        self.frame_inputs[..=depth]
            .iter()
            .map(|frame| {
                frame
                    .iter()
                    .map(|&lit| self.solver.lit_value(lit).unwrap_or(false))
                    .collect()
            })
            .collect()
    }
}

/// Runs BMC on bad-state property `bad_index`, increasing the bound until a
/// counterexample is found or the bound/time budget is exhausted.  The
/// bound loop and each SAT query stop soon after `cancel` is cancelled
/// *or* the wall-clock budget runs out (a `RunBudget` watchdog raises the
/// solver interrupt flag, so even one long query cannot overshoot
/// `options.timeout` arbitrarily).
pub(crate) fn run(
    aig: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let start = Instant::now();
    let budget = RunBudget::arm(cancel, start, options);
    let telemetry = &options.telemetry;
    let mut stats = EngineStats {
        visible_latches: aig.num_latches(),
        ..EngineStats::default()
    };
    let _run = telemetry.span_args("BMC.run", || {
        vec![("latches", ArgValue::U64(aig.num_latches() as u64))]
    });
    let finish = |mut stats: EngineStats, verdict: Verdict, certificate: Option<Certificate>| {
        telemetry.instant_args("verdict", || {
            vec![("verdict", ArgValue::Str(verdict.to_string()))]
        });
        stats.time = start.elapsed();
        EngineResult {
            verdict,
            stats,
            certificate,
        }
    };

    if let Some((verdict, cert)) = depth0_verdict(aig, bad_index, &budget, &mut stats, options) {
        return finish(stats, verdict, cert);
    }

    // `bound-k` already covers all depths up to k, so for plain BMC the
    // exact/assume schemes are the natural incremental formulations; all
    // three now run on one persistent unroller + solver pair.
    let mut incremental = IncrementalBmc::new(
        aig,
        bad_index,
        options.check,
        options.reduce_interval(),
        &budget,
        options.certificates,
        &mut stats,
    );
    let probe = EngineProbe::new(telemetry, options.probe_interval);
    incremental.solver.set_progress_probe(probe.probe());
    for k in 1..=options.max_bound {
        probe.set_bound(k);
        if let Some(reason) = budget.stop_reason() {
            return finish(
                stats,
                Verdict::Inconclusive {
                    reason,
                    bound_reached: k.saturating_sub(1),
                },
                None,
            );
        }
        let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
        let assumptions = incremental.advance(&mut stats);
        stats.sat_calls += 1;
        let query = telemetry.span_args("sat", || vec![("k", ArgValue::U64(k as u64))]);
        let before = incremental.solver.stats();
        let result = incremental.solver.solve(&assumptions);
        stats.add_solver_delta(incremental.solver.stats() - before);
        query.end();
        match result {
            SolveResult::Sat => {
                let cert = options
                    .certificates
                    .then(|| Certificate::Trace(incremental.extract_trace(k)));
                return finish(stats, Verdict::Falsified { depth: k }, cert);
            }
            SolveResult::Unsat => {}
            // Answering "no counterexample at k" without solving would let
            // the loop report a non-minimal depth later — stop instead.
            SolveResult::Interrupted => {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason: budget.interrupt_reason(),
                        bound_reached: k - 1,
                    },
                    None,
                );
            }
        }
    }
    finish(
        stats,
        Verdict::Inconclusive {
            reason: StopReason::BoundExhausted,
            bound_reached: options.max_bound,
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Options};
    use aig::builder::{latch_word, word_equals_const, word_increment};
    use sat::Solver;

    /// Runs BMC on property 0 of `aig`, with no preprocessing.
    fn verify(aig: &Aig, options: &Options) -> EngineResult {
        Engine::Bmc.run(aig, 0, options, &CancelToken::new())
    }

    /// The depth-0 check under a fresh budget with default options.
    fn depth0_check(aig: &Aig) -> Depth0Check {
        let budget = RunBudget::arm(&CancelToken::new(), Instant::now(), &Options::default());
        initial_violation(aig, 0, &budget, Some(sat::DEFAULT_REDUCE_FIRST))
    }

    fn counter(width: usize, bad_at: u64) -> Aig {
        let mut aig = Aig::new();
        let (ids, lits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &lits, aig::Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &lits, bad_at);
        aig.add_bad(bad);
        aig
    }

    /// An always-safe design with enough combinational logic that every
    /// frame contributes a measurable clause delta.
    fn safe_counter(width: usize) -> Aig {
        // A modular counter can never reach a value outside its range.
        let mut aig = Aig::new();
        let (ids, lits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &lits, aig::Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let hi = word_equals_const(&mut aig, &lits, (1 << width) - 1);
        let lo = word_equals_const(&mut aig, &lits, 0);
        // "top value and zero at once" is unsatisfiable combinationally.
        let bad = aig.and(hi, lo);
        aig.add_bad(bad);
        aig
    }

    /// A design whose depth-0 check is a pigeonhole refutation: hostile
    /// for the solver, trivial for a working interrupt hook.
    fn hostile_depth0(holes: usize) -> Aig {
        let mut aig = Aig::new();
        let pigeons = holes + 1;
        let var: Vec<Vec<aig::Lit>> = (0..pigeons)
            .map(|_| {
                (0..holes)
                    .map(|_| aig::Lit::positive(aig.add_input()))
                    .collect()
            })
            .collect();
        let mut formula = aig::Lit::TRUE;
        for row in &var {
            let mut any = aig::Lit::FALSE;
            for &v in row {
                any = aig.or(any, v);
            }
            formula = aig.and(formula, any);
        }
        for h in 0..holes {
            for (p1, row1) in var.iter().enumerate() {
                for row2 in &var[p1 + 1..] {
                    let both = aig.and(row1[h], row2[h]);
                    formula = aig.and(formula, !both);
                }
            }
        }
        let l = aig.add_latch(false);
        aig.set_next(l, aig.latch_lit(l));
        aig.add_bad(formula);
        aig
    }

    /// The pre-incremental reference: rebuild the instance from scratch at
    /// every bound, exactly as the engine did before the unrolling cache.
    #[allow(clippy::disallowed_methods)]
    fn verify_scratch(aig: &Aig, options: &Options) -> (Verdict, u64) {
        let mut sat_calls = 0u64;
        let depth0 = depth0_check(aig);
        sat_calls += 1;
        if matches!(depth0.outcome, Depth0::Violated) {
            return (Verdict::Falsified { depth: 0 }, sat_calls);
        }
        for k in 1..=options.max_bound {
            let instance = cnf::bmc::build(aig, 0, k, options.check);
            let mut solver = Solver::new();
            solver.add_cnf(&instance.cnf);
            sat_calls += 1;
            if solver.solve() == SolveResult::Sat {
                return (Verdict::Falsified { depth: k }, sat_calls);
            }
        }
        (
            Verdict::Inconclusive {
                reason: StopReason::BoundExhausted,
                bound_reached: options.max_bound,
            },
            sat_calls,
        )
    }

    #[test]
    fn finds_counterexample_at_exact_depth() {
        let aig = counter(4, 9);
        let result = verify(&aig, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 9 });
        assert!(result.stats.sat_calls >= 9);
    }

    #[test]
    fn counterexample_comes_with_a_replayable_trace() {
        let aig = counter(4, 9);
        let result = verify(&aig, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 9 });
        let Some(Certificate::Trace(inputs)) = result.certificate else {
            panic!("falsified BMC run must carry a trace certificate");
        };
        assert_eq!(inputs.len(), 10, "depth 9 needs 10 cycles of inputs");
        let sim = aig::simulate(&aig, &inputs);
        assert!(sim.bad[9][0], "replay must hit the bad state at depth 9");
        // The A/B switch: no certificate, same verdict.
        let off = verify(&aig, &Options::default().with_certificates(false));
        assert_eq!(off.verdict, Verdict::Falsified { depth: 9 });
        assert_eq!(off.certificate, None);
    }

    #[test]
    fn input_driven_counterexample_trace_replays() {
        // Bad fires when the input was high two cycles in a row.
        let mut aig = Aig::new();
        let i = aig::Lit::positive(aig.add_input());
        let l = aig.add_latch(false);
        aig.set_next(l, i);
        let seen_two = aig.and(aig.latch_lit(l), i);
        aig.add_bad(seen_two);
        let result = verify(&aig, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 1 });
        let Some(Certificate::Trace(inputs)) = result.certificate else {
            panic!("missing trace");
        };
        let sim = aig::simulate(&aig, &inputs);
        assert!(sim.bad[1][0], "replay must hit the bad state at depth 1");
    }

    #[test]
    fn gives_up_on_true_properties() {
        // A stuck-at-0 latch whose bad state never fires.
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        let cur = aig.latch_lit(l);
        aig.set_next(l, aig::Lit::FALSE);
        aig.add_bad(cur);
        let result = verify(&aig, &Options::default().with_max_bound(5));
        assert!(matches!(
            result.verdict,
            Verdict::Inconclusive {
                bound_reached: 5,
                ..
            }
        ));
    }

    #[test]
    fn bound_check_formulations_agree_on_failing_depth() {
        let aig = counter(3, 5);
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let result = verify(&aig, &Options::default().with_check(check));
            assert_eq!(result.verdict, Verdict::Falsified { depth: 5 }, "{check:?}");
        }
    }

    #[test]
    fn incremental_loop_matches_the_scratch_loop() {
        // Same verdicts, counterexample depths and SAT-call counts as the
        // per-bound rebuild, for every formulation, on failing and safe
        // designs.
        let designs = [counter(3, 5), counter(4, 9), counter(2, 2), safe_counter(3)];
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            for aig in &designs {
                let options = Options::default().with_max_bound(12).with_check(check);
                let incremental = verify(aig, &options);
                let (scratch_verdict, scratch_calls) = verify_scratch(aig, &options);
                assert_eq!(incremental.verdict, scratch_verdict, "{check:?}");
                assert_eq!(incremental.stats.sat_calls, scratch_calls, "{check:?}");
            }
        }
    }

    #[test]
    fn total_encoding_work_grows_linearly_with_the_bound() {
        // The acceptance criterion of the unrolling cache: clauses handed
        // to the solver across a max_bound = K run are O(K).  Doubling the
        // bound must roughly double (not quadruple) the volume, for every
        // formulation.
        let aig = safe_counter(4);
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let run = |bound: usize| {
                let result = verify(
                    &aig,
                    &Options::default().with_max_bound(bound).with_check(check),
                );
                assert!(
                    !result.verdict.is_conclusive(),
                    "safe design must exhaust the bound"
                );
                result.stats.clauses_encoded
            };
            let (half, full) = (run(10), run(20));
            assert!(half > 0);
            assert!(
                full < 2 * half,
                "{check:?}: encoding must be linear in the bound, got {half} vs {full}"
            );
        }
    }

    #[test]
    fn hostile_depth0_check_is_cancellable() {
        // Regression: the depth-0 solver used to be built without an
        // interrupt hook, so a pre-cancelled portfolio token still had to
        // sit through the whole (here: pigeonhole-hard) refutation.
        let aig = hostile_depth0(10);
        let cancel = CancelToken::new();
        cancel.cancel();
        let start = Instant::now();
        let result = Engine::Bmc.run(&aig, 0, &Options::default(), &cancel);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "cancelled depth-0 check must stop promptly"
        );
        assert_eq!(
            result.verdict,
            Verdict::Inconclusive {
                reason: StopReason::Cancelled,
                bound_reached: 0,
            }
        );
    }

    #[test]
    fn deadline_interrupts_a_single_long_solve() {
        // Regression: the loop only compared `options.timeout` between
        // bounds, so one long SAT call overshot the budget arbitrarily.
        let aig = hostile_depth0(10);
        let options = Options::default().with_timeout(Duration::from_millis(50));
        let start = Instant::now();
        let result = verify(&aig, &options);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "the deadline watchdog must interrupt the solve"
        );
        assert_eq!(
            result.verdict,
            Verdict::Inconclusive {
                reason: StopReason::Timeout,
                bound_reached: 0,
            }
        );
    }

    #[test]
    fn depth0_conflicts_reach_the_engine_stats() {
        // A small pigeonhole cone makes the depth-0 refutation conflict
        // for real; those conflicts used to be dropped on the floor.
        let aig = hostile_depth0(4);
        let depth0 = depth0_check(&aig);
        assert!(matches!(depth0.outcome, Depth0::Safe));
        assert!(depth0.solver.conflicts > 0, "php(4) must conflict");
        // With max_bound = 0 the engine's statistics are exactly the
        // depth-0 check's, so the accumulation is observable end to end.
        let result = verify(&aig, &Options::default().with_max_bound(0));
        assert!(result.stats.conflicts > 0);
        assert!(result.stats.clauses_encoded > 0);
        assert_eq!(result.stats.sat_calls, 1);
    }
}
