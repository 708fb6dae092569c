//! Amortized multi-property bounded model checking.
//!
//! One [`cnf::IncrementalUnroller`] and one long-lived
//! [`sat::IncrementalSolver`] serve *all* bad-state properties of the
//! design.  Each bound extends the shared unrolling by exactly one frame
//! — so the frame-encoding volume across a `max_bound = K` run is `O(K)`
//! regardless of the property count, where the per-property
//! [`Engine::verify`](crate::Engine::verify) loop pays `O(K·P)` — and
//! then checks every live property's target at that bound:
//!
//! * **exact-k / exact-assume-k** — the target `¬p_i(V^k)` is a solve
//!   *assumption*, so property `i`'s target never constrains property
//!   `j`'s query and nothing has to be retracted when the bound grows.
//!   Under assume-k, once property `i` survives bound `k` the permanent
//!   unit `p_i(V^k)` is added — sound for *every* later query on the
//!   shared solver, because frame `k` holds exactly the states reachable
//!   in `k` steps and property `i` was just shown unviolated there.
//! * **bound-k** — each live property chains a Plaisted–Greenbaum-style
//!   target literal `d_i^k ⇒ d_i^{k-1} ∨ ¬p_i(V^k)` (variables allocated
//!   by the unroller, the single numbering authority) and assumes
//!   `d_i^k`.  Assumption polarity only ever activates the current
//!   bound's chain, so no retirement is needed and per-property chains
//!   cannot interfere — unlike an [assertion
//!   group](sat::IncrementalSolver::assert_group), which `solve`
//!   activates unconditionally and which would therefore force *every*
//!   property's disjunction into every query.
//!
//! A satisfiable answer retires the property at that (minimal — all
//! earlier bounds were refuted) depth and reads the violating input
//! trace off the model; the solver, learned clauses and all, keeps
//! serving the survivors.  Retired properties stop having their bad
//! cones encoded at later frames.

use crate::engines::{CancelToken, EngineProbe, RunBudget};
use crate::multi::{RetireBoard, StatusSlots};
use crate::{EngineStats, MultiResult, Options, PropertyStatus};
use aig::Aig;
use cnf::{BmcCheck, IncrementalUnroller, Lit};
use sat::{IncrementalSolver, SolveResult};
use std::time::Instant;
use telemetry::ArgValue;

/// Verifies the bad-state properties `props` of `aig` in one amortized
/// BMC run; `statuses[i]` reports on property `props[i]`.
///
/// With a [`RetireBoard`], conclusive statuses are published there and
/// properties the *other* backend already decided are dropped from the
/// live set (their returned status is an `Inconclusive` placeholder with
/// reason `"retired"`; the scheduler replaces it with the board's
/// answer).
pub(crate) fn verify_all_with_cancel(
    aig: &Aig,
    props: &[usize],
    options: &Options,
    cancel: &CancelToken,
    board: Option<&RetireBoard>,
) -> MultiResult {
    MultiBmc::new(aig, props, options, board).run(cancel)
}

/// One slot of the per-property encoding bookkeeping (the status side
/// lives in the shared [`StatusSlots`]).
struct Slot {
    /// Index of the bad-state property in the design.
    property: usize,
    /// The property's bad literal per unrolled frame (`bads[f]` = frame
    /// `f`); retired properties stop growing theirs.
    bads: Vec<Lit>,
    /// The bound-k target chain literal `d^k` (bound-k formulation only).
    bound_target: Option<Lit>,
}

struct MultiBmc<'a> {
    aig: &'a Aig,
    options: &'a Options,
    start: Instant,
    stats: EngineStats,
    slots: Vec<Slot>,
    statuses: StatusSlots<'a>,
}

impl<'a> MultiBmc<'a> {
    fn new(
        aig: &'a Aig,
        props: &'a [usize],
        options: &'a Options,
        board: Option<&'a RetireBoard>,
    ) -> MultiBmc<'a> {
        MultiBmc {
            aig,
            options,
            start: Instant::now(),
            stats: EngineStats {
                visible_latches: aig.num_latches(),
                ..EngineStats::default()
            },
            slots: props
                .iter()
                .map(|&property| Slot {
                    property,
                    bads: Vec::new(),
                    bound_target: None,
                })
                .collect(),
            statuses: StatusSlots::new(props.len(), board, options.telemetry.clone()),
        }
    }

    fn finish(mut self) -> MultiResult {
        self.stats.time = self.start.elapsed();
        MultiResult {
            statuses: self.statuses.into_statuses(),
            stats: self.stats,
        }
    }

    /// Loads the unroller's pending delta clauses into the solver.
    fn drain(&mut self, unroller: &mut IncrementalUnroller, solver: &mut IncrementalSolver) {
        for clause in unroller.pending_clauses() {
            solver.add_clause(clause.lits.iter().copied());
        }
        self.stats.clauses_encoded += unroller.pending_clauses().len() as u64;
        unroller.mark_drained();
    }

    /// Reads the violating input trace (cycles `0..=depth`) off the
    /// solver's model.  Inputs the formula never mentions are
    /// unconstrained and read as `false`.
    fn extract_cex(
        &self,
        unroller: &mut IncrementalUnroller,
        solver: &IncrementalSolver,
        depth: usize,
    ) -> Vec<Vec<bool>> {
        (0..=depth)
            .map(|frame| {
                (0..self.aig.num_inputs())
                    .map(|input| {
                        let lit = unroller.input_lit(frame, input);
                        if lit.var().index() < solver.num_vars() {
                            solver.lit_value(lit).unwrap_or(false)
                        } else {
                            false
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn run(mut self, cancel: &CancelToken) -> MultiResult {
        let telemetry = self.options.telemetry.clone();
        let _run = telemetry.span_args("BMC.multi", || {
            vec![
                ("props", ArgValue::U64(self.slots.len() as u64)),
                ("latches", ArgValue::U64(self.aig.num_latches() as u64)),
            ]
        });
        let budget = RunBudget::arm(cancel, self.start, self.options);
        if self.slots.is_empty() {
            return self.finish();
        }

        let encode_start = Instant::now();
        let mut unroller = IncrementalUnroller::new(self.aig);
        unroller.assert_initial(0);
        let mut solver = budget.incremental_solver();
        // All variables are unroller-allocated; recycling would only
        // record a dead replay copy of the whole unrolling.
        solver.set_recycle_threshold(0);
        solver.set_reduce_interval(self.options.reduce_interval());
        let probe = EngineProbe::new(&telemetry, self.options.probe_interval);
        solver.set_progress_probe(probe.probe());
        let frame0 = unroller.bad_lits(0, self.slots.iter().map(|slot| slot.property));
        for (slot, bad) in self.slots.iter_mut().zip(frame0) {
            slot.bads.push(bad);
        }
        self.stats.encode_time += encode_start.elapsed();
        self.drain(&mut unroller, &mut solver);

        // Depth 0: the initial states themselves, one assumption per
        // property — same answers as the per-property depth-0 check.
        for i in 0..self.slots.len() {
            if self.statuses.yield_if_retired(i, 0) {
                continue;
            }
            let bad0 = self.slots[i].bads[0];
            self.stats.sat_calls += 1;
            let before = solver.stats();
            let result = solver.solve(&[bad0]);
            self.stats.add_solver_delta(solver.stats() - before);
            match result {
                SolveResult::Sat => {
                    let cex = self.extract_cex(&mut unroller, &solver, 0);
                    self.statuses.decide(
                        i,
                        PropertyStatus::Falsified {
                            depth: 0,
                            cex: Some(cex),
                        },
                    );
                }
                SolveResult::Unsat => {}
                SolveResult::Interrupted => {
                    self.statuses.give_up(budget.interrupt_reason(), 0);
                    return self.finish();
                }
            }
        }

        for k in 1..=self.options.max_bound {
            let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
            probe.set_bound(k);
            self.statuses.sync_board(k - 1);
            let live = self.statuses.live();
            if live.is_empty() {
                return self.finish();
            }
            if let Some(reason) = budget.stop_reason() {
                self.statuses.give_up(reason, k - 1);
                return self.finish();
            }

            // One frame extension serves every live property.
            let encode_start = Instant::now();
            unroller.add_frame();
            for &i in &live {
                let property = self.slots[i].property;
                let bad = unroller.bad_lit(k, property);
                self.slots[i].bads.push(bad);
            }
            self.stats.encode_time += encode_start.elapsed();
            self.drain(&mut unroller, &mut solver);

            // assume-k: every live property survived bound k-1, so its
            // non-violation there is a permanent (and globally sound)
            // constraint from now on.
            if self.options.check == BmcCheck::ExactAssume && k >= 2 {
                for &i in &live {
                    let bad_prev = self.slots[i].bads[k - 1];
                    solver.add_clause([!bad_prev]);
                    self.stats.clauses_encoded += 1;
                }
            }

            for i in live {
                if self.statuses.yield_if_retired(i, k - 1) {
                    continue;
                }
                let assumptions = match self.options.check {
                    BmcCheck::Exact | BmcCheck::ExactAssume => vec![self.slots[i].bads[k]],
                    BmcCheck::Bound => {
                        // Extend the property's target chain: assuming the
                        // new head requires a violation at *some* depth
                        // ≤ k.  The implication only fires when its head
                        // is assumed, so stale heads need no retirement
                        // and chains of different properties never
                        // interact.
                        let encode_start = Instant::now();
                        let head = unroller.builder_mut().new_lit();
                        let mut clause = vec![!head];
                        match self.slots[i].bound_target {
                            Some(prev) => {
                                clause.push(prev);
                                clause.push(self.slots[i].bads[k]);
                            }
                            None => clause.extend(self.slots[i].bads.iter().copied()),
                        }
                        solver.add_clause(clause);
                        self.stats.clauses_encoded += 1;
                        self.stats.encode_time += encode_start.elapsed();
                        self.slots[i].bound_target = Some(head);
                        vec![head]
                    }
                };
                self.stats.sat_calls += 1;
                let before = solver.stats();
                let result = solver.solve(&assumptions);
                self.stats.add_solver_delta(solver.stats() - before);
                match result {
                    SolveResult::Sat => {
                        // Minimal by construction: bounds < k were refuted.
                        let cex = self.extract_cex(&mut unroller, &solver, k);
                        self.statuses.decide(
                            i,
                            PropertyStatus::Falsified {
                                depth: k,
                                cex: Some(cex),
                            },
                        );
                    }
                    SolveResult::Unsat => {}
                    SolveResult::Interrupted => {
                        self.statuses.give_up(budget.interrupt_reason(), k - 1);
                        return self.finish();
                    }
                }
            }
        }
        self.statuses
            .give_up(crate::StopReason::BoundExhausted, self.options.max_bound);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::time::Duration;

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(10))
            .with_max_bound(24)
    }

    fn multi_counter() -> Aig {
        workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15])
    }

    #[test]
    fn statuses_match_the_per_property_loop() {
        let aig = multi_counter();
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let options = options().with_check(check);
            let multi = Engine::Bmc.verify_all(&aig, &options);
            for prop in 0..aig.num_bad() {
                let single = Engine::Bmc.verify(&aig, prop, &options);
                assert!(
                    multi.statuses[prop].agrees_with(&single.verdict),
                    "{check:?} property {prop}: {} vs {}",
                    multi.statuses[prop],
                    single.verdict
                );
            }
        }
    }

    #[test]
    fn depth_zero_violations_are_caught_per_property() {
        let aig = workloads::counter::modular_multi(3, 6, &[0, 4, 6]);
        let multi = Engine::Bmc.verify_all(&aig, &options());
        assert_eq!(multi.statuses[0].depth(), Some(0));
        assert_eq!(multi.statuses[1].depth(), Some(4));
        assert!(!multi.statuses[2].is_conclusive(), "threshold 6 never hit");
    }

    #[test]
    fn counterexample_traces_replay_through_simulation() {
        let aig = workloads::counter::modular_multi(4, 12, &[5, 9]);
        let multi = Engine::Bmc.verify_all(&aig, &options());
        for (prop, status) in multi.statuses.iter().enumerate() {
            let PropertyStatus::Falsified { depth, cex } = status else {
                panic!("property {prop} must be falsified, got {status}");
            };
            let cex = cex.as_ref().expect("multi-BMC attaches traces");
            assert_eq!(cex.len(), depth + 1);
            let trace = aig::simulate(&aig, cex);
            assert!(
                trace.bad[*depth][prop],
                "property {prop}: trace must exhibit the bad state at depth {depth}"
            );
        }
    }

    #[test]
    fn empty_property_list_finishes_immediately() {
        let aig = multi_counter();
        let result = verify_all_with_cancel(&aig, &[], &options(), &CancelToken::new(), None);
        assert!(result.statuses.is_empty());
        assert_eq!(result.stats.sat_calls, 0);
    }

    #[test]
    fn cancellation_reaches_every_live_property() {
        let aig = multi_counter();
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = verify_all_with_cancel(&aig, &[0, 1, 2, 3], &options(), &cancel, None);
        for status in &result.statuses {
            match status {
                PropertyStatus::Inconclusive { reason, .. } => assert_eq!(reason, "cancelled"),
                other => panic!("cancelled run must be inconclusive, got {other}"),
            }
        }
    }

    #[test]
    fn encoding_is_amortized_across_properties() {
        // The acceptance criterion: the shared unrolling makes the total
        // clauses encoded O(K + P) where the per-property loop pays
        // O(K·P).
        let aig = multi_counter();
        let options = options().with_max_bound(16);
        let multi = Engine::Bmc.verify_all(&aig, &options);
        let mut loop_total = 0;
        for prop in 0..aig.num_bad() {
            loop_total += Engine::Bmc
                .verify(&aig, prop, &options)
                .stats
                .clauses_encoded;
        }
        assert!(
            multi.stats.clauses_encoded < loop_total,
            "multi {} must beat the loop {}",
            multi.stats.clauses_encoded,
            loop_total
        );
    }
}
