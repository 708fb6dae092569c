//! Property-directed reachability (IC3/PDR).
//!
//! PDR is the post-2011 competitor to the paper's interpolation engines:
//! instead of extracting over-approximations from one monolithic BMC
//! refutation, it maintains a *trace* of frames `F_0 = I ⊆ F_1 ⊆ … ⊆ F_k`
//! (each an over-approximation of the states reachable in that many
//! steps, represented by learned clauses over the latches) and refines it
//! with thousands of small one-step relative-induction queries:
//!
//! * `frames` — the delta-encoded frame trace and the cube algebra,
//! * `obligations` — the priority queue of proof obligations driving
//!   the blocking phase,
//! * `generalize` — cube generalization by assumption-core shrinking
//!   plus CTG-style literal dropping,
//! * this module — the top-level loop: bad-state extraction at the
//!   frontier, obligation processing, clause propagation and fixpoint
//!   detection.
//!
//! The SAT side uses one [`IncrementalSolver`] per frame (each loaded
//! with the shared two-frame transition template) and activation-literal
//! clause retirement for the temporary `¬cube` clauses of the queries.
//!
//! Obligations are *not* re-enqueued at higher frames after being
//! blocked, so every obligation chain satisfies `frame + depth = level`
//! and a chain reaching frame 0 is a counterexample of exactly `level`
//! transitions.  Combined with the level-by-level outer loop this makes
//! reported counterexample depths minimal, matching BMC and exact BDD
//! reachability.
//!
//! # Concurrency
//!
//! With [`Options::threads`] above 1, the two embarrassingly parallel
//! parts of a PDR iteration are farmed out to worker threads:
//!
//! * **propagation** — the per-frame push queries of one frame all run
//!   against a read-only snapshot of that frame's solver, so they are
//!   answered on cloned solvers in parallel and merged back *in cube
//!   order*;
//! * **generalization** — the literal-drop candidates of one lemma are
//!   screened in parallel, each on its own pristine clone of the
//!   predecessor frame's solver, and the first (lowest-index) successful
//!   drop is adopted.
//!
//! Both merges depend only on item order and every query is answered
//! from a state independent of chunk boundaries, so *within the parallel
//! mode* results are bit-identical for every thread count above 1 —
//! parallelism changes wall-clock time, not answers.  Between the
//! sequential mode (`threads == 1`, CTG-aware generalization) and the
//! parallel mode (CTG-free screening) the learned *lemmas* can differ,
//! so the convergence bookkeeping (`k_fp`, `j_fp`) may shift; verdict
//! kinds and counterexample depths still always agree, because both are
//! semantic facts — soundness fixes which properties prove, and depths
//! are structurally minimal (they come from the obligation bookkeeping,
//! not from SAT models).
//!
//! All loops also poll a [`CancelToken`], making the engine a portfolio
//! citizen: a cancelled run stops within one bounded SAT query and
//! reports [`Verdict::Inconclusive`] with reason `"cancelled"`.

mod frames;
mod generalize;
mod obligations;

use crate::certificate::{Certificate, InvariantCert};
use crate::engines::{pool, CancelToken, EngineProbe, RunBudget};
use crate::multi::{RetireBoard, StatusSlots};
use crate::{EngineResult, EngineStats, MultiResult, Options, PropertyStatus, Verdict};
use aig::Aig;
use cnf::{Cnf, Lit, Unroller};
use frames::{Cube, FrameTrace};
use obligations::{Obligation, ObligationQueue};
use sat::{IncrementalSolver, SolveResult};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use telemetry::ArgValue;

/// Minimum number of per-frame queries before the engine bothers cloning
/// solvers for a parallel pass.
const PAR_MIN_ITEMS: usize = 4;

/// Runs PDR on bad-state property `bad_index` of `aig`: the outer loop,
/// the blocking phase, propagation, generalization and every SAT query
/// stop soon after `cancel` is cancelled or the wall-clock budget runs out
/// (the deadline reaches the solvers through the same interrupt flag).
pub(crate) fn run(
    aig: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let start = Instant::now();
    let telemetry = &options.telemetry;
    let _run = telemetry.span_args("PDR.run", || {
        vec![("latches", ArgValue::U64(aig.num_latches() as u64))]
    });
    let mut stats = EngineStats {
        visible_latches: aig.num_latches(),
        ..EngineStats::default()
    };
    let budget = RunBudget::arm(cancel, start, options);
    if let Some((verdict, certificate)) =
        crate::engines::bmc::depth0_verdict(aig, bad_index, &budget, &mut stats, options)
    {
        telemetry.instant_args("verdict", || {
            vec![("verdict", ArgValue::Str(verdict.to_string()))]
        });
        stats.time = start.elapsed();
        return EngineResult {
            verdict,
            stats,
            certificate,
        };
    }
    Pdr::new(aig, &[bad_index], options, start, stats, &budget).run()
}

/// Amortized multi-property PDR: one frame trace and one per-frame solver
/// family serve every property in `props` (see [`crate::multi`]).
///
/// Frame lemmas are facts about *reachability*, not about any particular
/// property, so cubes blocked while working on one property remain valid
/// for all the others; the shared transition template carries every
/// property's bad cone at frame 0.  The outer loop is the standard
/// level-by-level major loop, with each level's blocking phase run once
/// per live property (in index order):
///
/// * an obligation chain reaching frame 0 falsifies exactly that property
///   at the level's (structurally minimal) depth and retires it — its
///   blocked cubes stay behind for the survivors;
/// * a converged frame after a level in which every live property's
///   frontier was cleaned is an inductive invariant excluding all of
///   their bad states: every surviving property is proved at once.
///
/// With a [`RetireBoard`], conclusive statuses are published and
/// externally-decided properties are dropped from the live set (the
/// scheduler's per-property cancellation).
pub(crate) fn verify_all_with_cancel(
    aig: &Aig,
    props: &[usize],
    options: &Options,
    cancel: &CancelToken,
    board: Option<&RetireBoard>,
) -> MultiResult {
    let start = Instant::now();
    let telemetry = &options.telemetry;
    let _run = telemetry.span_args("PDR.multi", || {
        vec![
            ("props", ArgValue::U64(props.len() as u64)),
            ("latches", ArgValue::U64(aig.num_latches() as u64)),
        ]
    });
    let stats = EngineStats {
        visible_latches: aig.num_latches(),
        ..EngineStats::default()
    };
    let budget = RunBudget::arm(cancel, start, options);
    let mut statuses = StatusSlots::new(props.len(), board, telemetry.clone());
    let mut pdr = Pdr::new(aig, props, options, start, stats, &budget);

    let finish = |mut pdr: Pdr<'_>, statuses: StatusSlots<'_>| {
        pdr.stats.time = start.elapsed();
        MultiResult {
            statuses: statuses.into_statuses(),
            stats: pdr.stats,
        }
    };

    // Depth 0 per property, answered by the init solver (`I ∧ T` plus
    // every bad cone): equisatisfiable with the per-property check.
    for i in 0..props.len() {
        if statuses.yield_if_retired(i, 0) {
            continue;
        }
        let bad0 = pdr.bads0[i];
        let result = Pdr::solve_on(&mut pdr.solvers[0], &mut pdr.stats, &[bad0]);
        match result {
            SolveResult::Sat => {
                // The init solver's model fixes the frame-0 inputs that
                // fire the bad cone from the (unique) initial state: a
                // one-frame replayable trace.
                let cex = options
                    .certificates
                    .then(|| vec![pdr.model_input_values(0)]);
                statuses.decide(i, PropertyStatus::Falsified { depth: 0, cex });
            }
            SolveResult::Unsat => {}
            SolveResult::Interrupted => {
                statuses.give_up(budget.interrupt_reason(), 0);
                return finish(pdr, statuses);
            }
        }
    }

    for level in 1..=options.max_bound {
        let _level = telemetry.span_args("level", || vec![("k", ArgValue::U64(level as u64))]);
        pdr.probe.set_bound(level);
        statuses.sync_board(level - 1);
        let live = statuses.live();
        if live.is_empty() {
            return finish(pdr, statuses);
        }
        pdr.extend();
        for i in live {
            // A property the other backend decided mid-level is recorded
            // as yielded, so the convergence sweep below can never
            // misreport it as proved — its frontier was not cleaned.
            if statuses.yield_if_retired(i, level - 1) {
                continue;
            }
            match pdr.blocking_phase(i) {
                Phase::Falsified { depth, trace } => {
                    statuses.decide(i, PropertyStatus::Falsified { depth, cex: trace });
                }
                Phase::Stopped => {
                    statuses.give_up(pdr.stop_reason(), level - 1);
                    return finish(pdr, statuses);
                }
                Phase::Done => {}
            }
        }
        if statuses.all_decided() {
            return finish(pdr, statuses);
        }
        if let Some(frame) = pdr.propagate() {
            // The converged frame is inductive and clean of every still-
            // undecided property's bad states (their blocking phases all
            // completed this level): every survivor is proved at once,
            // and one shared invariant certificate covers them all.
            let cert = options.certificates.then(|| {
                let _emit = telemetry.span("certificate.emit");
                pdr.invariant(frame)
            });
            let cert = cert.map(|mut inv| {
                pdr.stats.cert_clauses_subsumed += inv.compress() as u64;
                Arc::new(inv)
            });
            for i in statuses.live() {
                statuses.decide(
                    i,
                    PropertyStatus::Proved {
                        k_fp: level,
                        j_fp: frame,
                        cert: cert.clone(),
                    },
                );
            }
            return finish(pdr, statuses);
        }
        if pdr.stopped() {
            statuses.give_up(pdr.stop_reason(), level);
            return finish(pdr, statuses);
        }
    }
    statuses.give_up(crate::types::StopReason::BoundExhausted, options.max_bound);
    finish(pdr, statuses)
}

/// Outcome of one relative-induction query.
enum Query {
    /// The cube is unreachable from the previous frame; the payload is the
    /// assumption-core-shrunk (and initiation-repaired) sub-cube.
    Blocked(Cube),
    /// The cube has a predecessor in the previous frame; the payloads are
    /// the lifted predecessor cube and the input values under which it
    /// steps into the blocked cube (one entry of the obligation chain's
    /// replayable trace).
    Predecessor(Cube, Vec<bool>),
    /// The query was interrupted by cancellation before an answer.
    Cancelled,
}

/// Outcome of one level's blocking phase.
enum Phase {
    /// Every bad state at the frontier was blocked.
    Done,
    /// A proof obligation reached frame 0: counterexample of this depth,
    /// with the obligation chain replayed into an input trace (when
    /// certificates are enabled).
    Falsified {
        depth: usize,
        trace: Option<Vec<Vec<bool>>>,
    },
    /// The time budget ran out or the run was cancelled.
    Stopped,
}

/// The PDR engine state shared by the loop and the generalization module.
struct Pdr<'a> {
    options: &'a Options,
    start: Instant,
    stats: EngineStats,
    budget: &'a RunBudget,
    /// Worker threads for the parallel frame phases (1 = sequential).
    threads: usize,
    /// The (unique) initial state, one value per latch.
    init: Vec<bool>,
    /// Two-frame transition template `T(V⁰, V¹)` with the bad cone at
    /// frame 0, shared by every per-frame solver.
    template: Cnf,
    /// Latch variables of frame 0 / frame 1 of the template.
    latch0: Vec<Lit>,
    latch1: Vec<Lit>,
    /// Primary-input variables of frame 0.
    input0: Vec<Lit>,
    /// The bad literals at frame 0, one per verified property (a single
    /// property for [`run`], the whole group for `verify_all`).
    bads0: Vec<Lit>,
    latch_of_var0: HashMap<u32, usize>,
    latch_of_var1: HashMap<u32, usize>,
    /// `solvers[i]` decides queries against `F_i ∧ T`; `solvers[0]` is
    /// `I ∧ T` exactly.
    solvers: Vec<IncrementalSolver>,
    /// Lifting solver: the bare template, queried only under assumptions
    /// and retirable clauses.
    lift: IncrementalSolver,
    frames: FrameTrace,
    obligations: ObligationQueue,
    /// Number of design latches (for invariant certificates).
    num_latches: usize,
    /// Progress publisher shared by every solver of the run; the major
    /// loop keeps its current level in it.
    probe: EngineProbe,
    /// Path arena for counterexample reconstruction: one
    /// `(inputs, successor)` entry per discovered predecessor, indexed by
    /// [`Obligation::path`].  Cleared with each new obligation root.
    paths: Vec<(Vec<bool>, Option<u32>)>,
}

impl<'a> Pdr<'a> {
    fn new(
        aig: &'a Aig,
        bad_indices: &[usize],
        options: &'a Options,
        start: Instant,
        stats: EngineStats,
        budget: &'a RunBudget,
    ) -> Pdr<'a> {
        let mut unroller = Unroller::new(aig);
        for input in 0..aig.num_inputs() {
            let _ = unroller.input_lit(0, input);
        }
        let bads0: Vec<Lit> = bad_indices
            .iter()
            .map(|&bad_index| unroller.bad_lit(0, bad_index))
            .collect();
        unroller.add_frame();
        let latch0 = unroller.latch_lits(0);
        let latch1 = unroller.latch_lits(1);
        let input0: Vec<Lit> = (0..aig.num_inputs())
            .map(|input| unroller.input_lit(0, input))
            .collect();
        let template = unroller.into_cnf();

        let latch_of_var0 = latch0
            .iter()
            .enumerate()
            .map(|(latch, lit)| (lit.var().index(), latch))
            .collect();
        let latch_of_var1 = latch1
            .iter()
            .enumerate()
            .map(|(latch, lit)| (lit.var().index(), latch))
            .collect();

        let probe = EngineProbe::new(&options.telemetry, options.probe_interval);
        let init: Vec<bool> = (0..aig.num_latches()).map(|l| aig.init(l)).collect();
        let mut init_solver = budget.incremental_solver_with_base(&template);
        init_solver.set_reduce_interval(options.reduce_interval());
        init_solver.set_progress_probe(probe.probe());
        for (latch, &value) in init.iter().enumerate() {
            let lit = if value { latch0[latch] } else { !latch0[latch] };
            init_solver.add_clause([lit]);
        }
        let mut lift = budget.incremental_solver_with_base(&template);
        lift.set_reduce_interval(options.reduce_interval());
        lift.set_progress_probe(probe.probe());

        Pdr {
            options,
            start,
            stats,
            budget,
            threads: options.effective_threads().max(1),
            init,
            template,
            latch0,
            latch1,
            input0,
            bads0,
            latch_of_var0,
            latch_of_var1,
            solvers: vec![init_solver],
            lift,
            frames: FrameTrace::new(),
            obligations: ObligationQueue::new(),
            num_latches: aig.num_latches(),
            probe,
            paths: Vec::new(),
        }
    }

    /// The standard IC3 major loop: extend the trace one frame, block
    /// every frontier bad state, propagate clauses forward, detect the
    /// fixpoint.
    fn run(mut self) -> EngineResult {
        for level in 1..=self.options.max_bound {
            let _level = self
                .options
                .telemetry
                .span_args("level", || vec![("k", ArgValue::U64(level as u64))]);
            self.probe.set_bound(level);
            self.extend();
            match self.blocking_phase(0) {
                Phase::Falsified { depth, trace } => {
                    return self
                        .finish(Verdict::Falsified { depth }, trace.map(Certificate::Trace));
                }
                Phase::Stopped => {
                    let reason = self.stop_reason();
                    return self.finish(
                        Verdict::Inconclusive {
                            reason,
                            bound_reached: level - 1,
                        },
                        None,
                    );
                }
                Phase::Done => {}
            }
            if let Some(frame) = self.propagate() {
                let certificate = self.options.certificates.then(|| {
                    let _emit = self.options.telemetry.span("certificate.emit");
                    self.invariant(frame)
                });
                let certificate = certificate.map(|mut inv| {
                    self.stats.cert_clauses_subsumed += inv.compress() as u64;
                    Certificate::Invariant(inv)
                });
                return self.finish(
                    Verdict::Proved {
                        k_fp: level,
                        j_fp: frame,
                    },
                    certificate,
                );
            }
            if self.stopped() {
                let reason = self.stop_reason();
                return self.finish(
                    Verdict::Inconclusive {
                        reason,
                        bound_reached: level,
                    },
                    None,
                );
            }
        }
        let bound_reached = self.options.max_bound;
        self.finish(
            Verdict::Inconclusive {
                reason: crate::types::StopReason::BoundExhausted,
                bound_reached,
            },
            None,
        )
    }

    fn finish(mut self, verdict: Verdict, certificate: Option<Certificate>) -> EngineResult {
        self.options.telemetry.instant_args("verdict", || {
            vec![("verdict", ArgValue::Str(verdict.to_string()))]
        });
        self.stats.time = self.start.elapsed();
        EngineResult {
            verdict,
            stats: self.stats,
            certificate,
        }
    }

    /// Exports the converged frame `F_frame` as an inductive-invariant
    /// certificate: the conjunction of its lemma clauses.  Soundness:
    /// every lemma excludes the (unique) initial state, so `init ⊆ Inv`;
    /// at the fixpoint `F_frame = F_{frame+1} ⊇ Image(F_frame)`, so `Inv`
    /// is inductive; and `frame ≤ level` with every live property's
    /// frontier cleaned this level makes `Inv ∧ bad` unsatisfiable.
    fn invariant(&self, frame: usize) -> InvariantCert {
        InvariantCert {
            num_latches: self.num_latches,
            clauses: self.frames.invariant_clauses(frame),
            cone: None,
        }
    }

    /// Returns `true` when the engine must stop: the time budget ran out
    /// or the supervisor cancelled the run.
    fn stopped(&self) -> bool {
        self.budget.stop_reason().is_some()
    }

    /// The reason to report for a stop, cancellation taking precedence.
    fn stop_reason(&self) -> crate::types::StopReason {
        self.budget
            .stop_reason()
            .unwrap_or(crate::types::StopReason::Timeout)
    }

    /// Opens frame `k`: a fresh unconstrained frontier with its own solver.
    fn extend(&mut self) {
        self.frames.push_frame();
        self.options.telemetry.instant_args("extend", || {
            vec![("frames", ArgValue::U64(self.frames.level() as u64 + 1))]
        });
        let mut solver = self.budget.incremental_solver_with_base(&self.template);
        solver.set_reduce_interval(self.options.reduce_interval());
        solver.set_progress_probe(self.probe.probe());
        self.solvers.push(solver);
    }

    /// Blocks frontier bad states of property `prop` until none remain
    /// (or a counterexample or timeout surfaces).
    fn blocking_phase(&mut self, prop: usize) -> Phase {
        let level = self.frames.level();
        let _blocking = self.options.telemetry.span_args("blocking", || {
            vec![
                ("k", ArgValue::U64(level as u64)),
                ("prop", ArgValue::U64(prop as u64)),
            ]
        });
        let mut obligations_processed = 0u64;
        let report = |telemetry: &telemetry::Telemetry, processed: u64| {
            if processed > 0 {
                telemetry.counter("obligations", || {
                    vec![("processed", ArgValue::U64(processed))]
                });
            }
        };
        loop {
            if self.stopped() {
                report(&self.options.telemetry, obligations_processed);
                return Phase::Stopped;
            }
            let Some((bad, path)) = self.get_bad(prop) else {
                // `None` also covers an interrupted query: distinguish a
                // clean "no bad states" from a cancelled probe.
                report(&self.options.telemetry, obligations_processed);
                if self.stopped() {
                    return Phase::Stopped;
                }
                return Phase::Done;
            };
            self.obligations.clear();
            self.obligations.push(Obligation {
                frame: level,
                depth: 0,
                cube: bad,
                path,
            });
            while let Some(obligation) = self.obligations.pop() {
                obligations_processed += 1;
                if self.stopped() {
                    report(&self.options.telemetry, obligations_processed);
                    return Phase::Stopped;
                }
                if obligation.frame == 0 {
                    // Every chain satisfies `frame + depth = level`, which
                    // is what makes the reported depths minimal.
                    debug_assert_eq!(obligation.depth, level);
                    report(&self.options.telemetry, obligations_processed);
                    let trace = self
                        .options
                        .certificates
                        .then(|| self.reconstruct_trace(obligation.path));
                    return Phase::Falsified {
                        depth: obligation.depth,
                        trace,
                    };
                }
                match self.relative_induction(obligation.frame, &obligation.cube) {
                    Query::Blocked(core) => {
                        let lemma = generalize::generalize(self, obligation.frame, core);
                        self.add_lemma(obligation.frame, lemma);
                    }
                    Query::Predecessor(cube, inputs) => {
                        let path = self.push_path(inputs, Some(obligation.path));
                        let child = Obligation {
                            frame: obligation.frame - 1,
                            depth: obligation.depth + 1,
                            cube,
                            path,
                        };
                        self.obligations.push(obligation);
                        self.obligations.push(child);
                    }
                    Query::Cancelled => {
                        report(&self.options.telemetry, obligations_processed);
                        return Phase::Stopped;
                    }
                }
            }
            debug_assert!(self.obligations.is_empty());
        }
    }

    /// Returns a (lifted) frontier state that exhibits property `prop`'s
    /// bad cone together with its path-arena root entry, or `None` when
    /// `F_k ∧ bad` is unsatisfiable.
    fn get_bad(&mut self, prop: usize) -> Option<(Cube, u32)> {
        let level = self.frames.level();
        let bad0 = self.bads0[prop];
        let result = Self::solve_on(&mut self.solvers[level], &mut self.stats, &[bad0]);
        if result != SolveResult::Sat {
            // Unsat: the frontier is clean.  Interrupted: the caller
            // re-checks `stopped` and winds down.
            return None;
        }
        let (state, inputs) = self.model_state_and_inputs(level);
        // Root of this round's obligation chains: the inputs that fire
        // the bad cone from the frontier state.  The arena only ever
        // holds entries of the current root's chains.
        self.paths.clear();
        let path = self.push_path(self.input_values_of(&inputs), None);
        // Lift: with the inputs fixed, which part of the state forces bad?
        let mut assumptions = inputs;
        assumptions.push(!bad0);
        assumptions.extend_from_slice(&state);
        let lifted = Self::solve_on(&mut self.lift, &mut self.stats, &assumptions);
        if lifted == SolveResult::Interrupted {
            return None;
        }
        let cube = if lifted == SolveResult::Unsat {
            // When the bad cone is a bare latch literal, `¬bad0` aliases a
            // state variable and shows up in the core next to the opposite
            // state literal — drop it before reading the core as a cube.
            let core: Vec<Lit> = self
                .lift
                .assumption_core()
                .into_iter()
                .filter(|&lit| lit != !bad0)
                .collect();
            self.cube_from_core0(&core)
        } else {
            debug_assert!(false, "a total assignment must decide the bad cone");
            Cube::new(Vec::new())
        };
        Some(if cube.is_empty() {
            (self.cube_from_state_lits(&state), path)
        } else {
            (cube, path)
        })
    }

    /// The one-step relative-induction query
    /// `SAT?[F_{frame-1} ∧ ¬cube ∧ T ∧ cube′]`.
    fn relative_induction(&mut self, frame: usize, cube: &Cube) -> Query {
        debug_assert!(frame >= 1 && frame <= self.frames.level());
        let clause: Vec<Lit> = cube
            .iter()
            .map(|(latch, value)| !Self::state_lit(&self.latch0, latch, value))
            .collect();
        let assumptions: Vec<Lit> = cube
            .iter()
            .map(|(latch, value)| Self::state_lit(&self.latch1, latch, value))
            .collect();
        let guard = self.solvers[frame - 1].add_retirable_clause(clause);
        let result = Self::solve_on(&mut self.solvers[frame - 1], &mut self.stats, &assumptions);
        match result {
            SolveResult::Unsat => {
                let core = self.solvers[frame - 1].assumption_core();
                self.solvers[frame - 1].retire(guard);
                let mut seed = self.cube_from_core1(&core);
                if seed.is_empty() {
                    seed = cube.clone();
                }
                Query::Blocked(self.repair_initiation(seed, cube))
            }
            SolveResult::Sat => {
                let (state, inputs) = self.model_state_and_inputs(frame - 1);
                self.solvers[frame - 1].retire(guard);
                let values = self.input_values_of(&inputs);
                Query::Predecessor(self.lift_predecessor(state, inputs, cube), values)
            }
            SolveResult::Interrupted => {
                self.solvers[frame - 1].retire(guard);
                Query::Cancelled
            }
        }
    }

    /// Shrinks a concrete predecessor (state + inputs) to the sub-cube
    /// that is forced to step into `successor` under those inputs.
    fn lift_predecessor(&mut self, state: Vec<Lit>, inputs: Vec<Lit>, successor: &Cube) -> Cube {
        let blocking: Vec<Lit> = successor
            .iter()
            .map(|(latch, value)| !Self::state_lit(&self.latch1, latch, value))
            .collect();
        let guard = self.lift.add_retirable_clause(blocking);
        let mut assumptions = inputs;
        assumptions.extend_from_slice(&state);
        let result = Self::solve_on(&mut self.lift, &mut self.stats, &assumptions);
        let cube = if result == SolveResult::Unsat {
            self.cube_from_core0(&self.lift.assumption_core())
        } else {
            // Interrupted lifts fall back to the full (sound) predecessor;
            // a genuine Sat answer would contradict totality.
            debug_assert!(
                result == SolveResult::Interrupted,
                "a total assignment determines its successor"
            );
            Cube::new(Vec::new())
        };
        self.lift.retire(guard);
        if cube.is_empty() {
            self.cube_from_state_lits(&state)
        } else {
            cube
        }
    }

    /// Pushes every lemma that also holds one frame later; returns the
    /// converged frame when the trace reaches a fixpoint.
    ///
    /// The push queries of one frame are mutually independent — they only
    /// *read* `solvers[frame]` (lemmas move into `frame + 1`) — so with
    /// `threads > 1` they are answered on cloned solvers in parallel.
    /// Results are merged in cube order, which reproduces the sequential
    /// pass exactly: whether a query is answered by the original solver or
    /// a clone cannot change its Sat/Unsat answer, only its running time.
    fn propagate(&mut self) -> Option<usize> {
        let level = self.frames.level();
        let _propagate = self
            .options
            .telemetry
            .span_args("propagate", || vec![("k", ArgValue::U64(level as u64))]);
        for frame in 1..level {
            let cubes = self.frames.take_frame(frame);
            let outcomes = self.push_queries(frame, &cubes);
            let mut interrupted = false;
            for (index, cube) in cubes.into_iter().enumerate() {
                let outcome = outcomes.get(index).copied();
                if outcome == Some(SolveResult::Unsat) && !interrupted {
                    if self.frames.add(frame + 1, cube.clone()) {
                        self.add_lemma_clause(frame + 1, &cube);
                    }
                } else {
                    // Sat answers stay put; interrupted or unissued
                    // queries must be restored so no lemma is ever lost
                    // (a lost lemma could fake frame convergence).
                    if outcome != Some(SolveResult::Sat) {
                        interrupted = true;
                    }
                    self.frames.restore(frame, cube);
                }
            }
            if interrupted {
                return None;
            }
            if self.frames.frame_converged(frame) {
                return Some(frame);
            }
            if self.stopped() {
                return None;
            }
        }
        None
    }

    /// Answers the push queries `SAT?[F_frame ∧ T ∧ cube′]` for all cubes
    /// of one frame, sequentially or chunked across worker threads.
    fn push_queries(&mut self, frame: usize, cubes: &[Cube]) -> Vec<SolveResult> {
        let assumption_sets: Vec<Vec<Lit>> = cubes
            .iter()
            .map(|cube| {
                cube.iter()
                    .map(|(latch, value)| Self::state_lit(&self.latch1, latch, value))
                    .collect()
            })
            .collect();
        if self.threads > 1 && cubes.len() >= PAR_MIN_ITEMS {
            let solver = &self.solvers[frame];
            let (answers, reruns): (Vec<(SolveResult, sat::SolverStats)>, u64) = pool::map_chunked(
                &assumption_sets,
                self.threads,
                || solver.clone(),
                |worker, assumptions| {
                    let before = worker.stats();
                    let result = worker.solve(assumptions);
                    (result, worker.stats() - before)
                },
            );
            self.record_pool_reruns(reruns);
            for &(_, delta) in &answers {
                self.stats.sat_calls += 1;
                self.stats.add_solver_delta(delta);
            }
            answers.into_iter().map(|(result, _)| result).collect()
        } else {
            let mut results = Vec::with_capacity(assumption_sets.len());
            for assumptions in &assumption_sets {
                let result = Self::solve_on(&mut self.solvers[frame], &mut self.stats, assumptions);
                let done = result == SolveResult::Interrupted;
                results.push(result);
                if done {
                    // The caller restores the unqueried remainder.
                    break;
                }
            }
            results
        }
    }

    /// Screens generalization candidates concurrently: every candidate's
    /// relative-induction query `SAT?[F_{frame-1} ∧ ¬cand ∧ T ∧ cand′]`
    /// runs on its own clone of `solvers[frame - 1]`, and a blocked
    /// candidate yields its core-shrunk, initiation-repaired sub-cube.
    ///
    /// Candidates that are empty or contain the initial state screen as
    /// `None` without a query.  Every clone starts from the same solver
    /// state, so the outcome vector is independent of the thread count.
    fn screen_drop_candidates(&mut self, frame: usize, candidates: &[Cube]) -> Vec<Option<Cube>> {
        // One screened candidate: the core-shrunk sub-cube (when the
        // query blocked), the solver-stat delta, and the interrupt bit.
        type Screened = (Option<Vec<Lit>>, sat::SolverStats, bool);
        debug_assert!(frame >= 1 && frame <= self.frames.level());
        let this = &*self;
        let solver = &this.solvers[frame - 1];
        let (answers, reruns): (Vec<Screened>, u64) = pool::map_chunked(
            candidates,
            this.threads,
            || solver,
            |base, candidate| {
                if candidate.is_empty() || candidate.contains_state(&this.init) {
                    return (None, sat::SolverStats::default(), false);
                }
                // Every candidate gets its own pristine clone: a shared
                // clone would accumulate the earlier candidates' live
                // `¬cand` clauses (IncrementalSolver::solve activates all
                // of them), poisoning later queries with non-lemmas and
                // making answers depend on chunk boundaries.  The clone is
                // dropped after one query, so nothing needs retiring.
                let mut worker = (*base).clone();
                let clause: Vec<Lit> = candidate
                    .iter()
                    .map(|(latch, value)| !Self::state_lit(&this.latch0, latch, value))
                    .collect();
                let assumptions: Vec<Lit> = candidate
                    .iter()
                    .map(|(latch, value)| Self::state_lit(&this.latch1, latch, value))
                    .collect();
                worker.add_retirable_clause(clause);
                let before = worker.stats();
                let result = worker.solve(&assumptions);
                let delta = worker.stats() - before;
                match result {
                    SolveResult::Unsat => (Some(worker.assumption_core()), delta, true),
                    SolveResult::Sat | SolveResult::Interrupted => (None, delta, true),
                }
            },
        );
        self.record_pool_reruns(reruns);
        let mut outcomes = Vec::with_capacity(candidates.len());
        for ((core, delta, queried), candidate) in answers.into_iter().zip(candidates) {
            if queried {
                self.stats.sat_calls += 1;
                self.stats.add_solver_delta(delta);
            }
            outcomes.push(core.map(|core| {
                let mut seed = self.cube_from_core1(&core);
                if seed.is_empty() {
                    seed = candidate.clone();
                }
                self.repair_initiation(seed, candidate)
            }));
        }
        outcomes
    }

    /// Books a degraded parallel pass: `reruns` chunks fell back to the
    /// deterministic sequential replay after a contained worker panic.
    fn record_pool_reruns(&mut self, reruns: u64) {
        if reruns > 0 {
            self.stats.pool_seq_reruns += reruns;
            self.options.telemetry.instant_args("degraded", || {
                vec![("pool_seq_reruns", ArgValue::U64(reruns))]
            });
        }
    }

    /// Records `¬cube` as a lemma of frames `1..=frame`.
    fn add_lemma(&mut self, frame: usize, cube: Cube) {
        debug_assert!(
            !cube.contains_state(&self.init),
            "lemmas must exclude the initial state"
        );
        if self.frames.add(frame, cube.clone()) {
            for f in 1..=frame {
                self.add_lemma_clause(f, &cube);
            }
        }
    }

    /// Installs the clause `¬cube` into one frame solver.
    fn add_lemma_clause(&mut self, frame: usize, cube: &Cube) {
        let clause: Vec<Lit> = cube
            .iter()
            .map(|(latch, value)| !Self::state_lit(&self.latch0, latch, value))
            .collect();
        self.solvers[frame].add_clause(clause);
    }

    /// Re-adds one initiation-separating literal when core shrinking made
    /// the cube contain the initial state.
    fn repair_initiation(&self, seed: Cube, full: &Cube) -> Cube {
        if !seed.contains_state(&self.init) {
            return seed;
        }
        for (latch, value) in full.iter() {
            if self.init[latch] != value {
                return seed.with(latch, value);
            }
        }
        debug_assert!(false, "obligation cubes never contain the initial state");
        full.clone()
    }

    fn state_lit(vars: &[Lit], latch: usize, value: bool) -> Lit {
        if value {
            vars[latch]
        } else {
            !vars[latch]
        }
    }

    /// Reads the frame-0 state and input literals of the model of the last
    /// satisfiable query on `solvers[index]`.
    fn model_state_and_inputs(&self, index: usize) -> (Vec<Lit>, Vec<Lit>) {
        let solver = &self.solvers[index];
        let state = self
            .latch0
            .iter()
            .map(|&lit| {
                if solver.lit_value(lit).unwrap_or(false) {
                    lit
                } else {
                    !lit
                }
            })
            .collect();
        let inputs = self
            .input0
            .iter()
            .map(|&lit| {
                if solver.lit_value(lit).unwrap_or(false) {
                    lit
                } else {
                    !lit
                }
            })
            .collect();
        (state, inputs)
    }

    /// Reads the frame-0 input values of the model of the last satisfiable
    /// query on `solvers[index]`.
    fn model_input_values(&self, index: usize) -> Vec<bool> {
        let solver = &self.solvers[index];
        self.input0
            .iter()
            .map(|&lit| solver.lit_value(lit).unwrap_or(false))
            .collect()
    }

    /// Decodes a model's input literals (as produced by
    /// [`Self::model_state_and_inputs`]) into plain boolean values.
    fn input_values_of(&self, inputs: &[Lit]) -> Vec<bool> {
        inputs
            .iter()
            .zip(&self.input0)
            .map(|(&lit, &var)| lit == var)
            .collect()
    }

    /// Appends one `(inputs, successor)` entry to the path arena.
    fn push_path(&mut self, inputs: Vec<bool>, parent: Option<u32>) -> u32 {
        let id = self.paths.len() as u32;
        self.paths.push((inputs, parent));
        id
    }

    /// Replays an obligation chain into an input trace.  A frame-0
    /// obligation's entry holds the inputs applied at the initial state
    /// (the lift guarantees any state in an obligation cube steps into
    /// the successor cube under the recorded inputs, and `solvers[0]`
    /// forces the initial state exactly), and each successor link moves
    /// one transition closer to the frontier — so the child→parent walk
    /// already yields time order: `depth + 1` input vectors whose replay
    /// exhibits the bad output at exactly the reported depth.
    fn reconstruct_trace(&self, path: u32) -> Vec<Vec<bool>> {
        let mut trace = Vec::new();
        let mut cursor = Some(path);
        while let Some(id) = cursor {
            let (inputs, parent) = &self.paths[id as usize];
            trace.push(inputs.clone());
            cursor = *parent;
        }
        trace
    }

    /// Converts a full frame-0 state assignment into a cube.
    fn cube_from_state_lits(&self, state: &[Lit]) -> Cube {
        Cube::new(
            state
                .iter()
                .map(|lit| {
                    let latch = self.latch_of_var0[&lit.var().index()];
                    (latch, lit.is_positive())
                })
                .collect(),
        )
    }

    /// Keeps the frame-0 latch literals of an assumption core as a cube.
    fn cube_from_core0(&self, core: &[Lit]) -> Cube {
        Cube::new(
            core.iter()
                .filter_map(|lit| {
                    self.latch_of_var0
                        .get(&lit.var().index())
                        .map(|&latch| (latch, lit.is_positive()))
                })
                .collect(),
        )
    }

    /// Keeps the frame-1 latch literals of an assumption core as a cube.
    fn cube_from_core1(&self, core: &[Lit]) -> Cube {
        Cube::new(
            core.iter()
                .filter_map(|lit| {
                    self.latch_of_var1
                        .get(&lit.var().index())
                        .map(|&latch| (latch, lit.is_positive()))
                })
                .collect(),
        )
    }

    fn solve_on(
        solver: &mut IncrementalSolver,
        stats: &mut EngineStats,
        assumptions: &[Lit],
    ) -> SolveResult {
        let before = solver.stats();
        let result = solver.solve(assumptions);
        stats.sat_calls += 1;
        stats.add_solver_delta(solver.stats() - before);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use aig::builder::word_equals_const;
    use std::time::Duration;
    use workloads::counter::modular;

    /// Runs PDR on property 0 of `aig`, with no preprocessing.
    fn verify(aig: &Aig, options: &Options) -> EngineResult {
        Engine::Pdr.run(aig, 0, options, &CancelToken::new())
    }

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(10))
            .with_max_bound(40)
    }

    #[test]
    fn proves_unreachable_counter_values() {
        let aig = modular(3, 6, 7);
        let result = verify(&aig, &options());
        assert!(result.verdict.is_proved(), "{}", result.verdict);
        assert!(result.stats.sat_calls > 0);
    }

    #[test]
    fn finds_minimal_counterexample_depths() {
        for bad_at in [1u64, 3, 5, 9] {
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
    fn respects_the_bound_budget() {
        // The bad value 30 needs 30 steps; a bound of 3 must give up.
        let aig = modular(5, 32, 30);
        let result = verify(&aig, &options().with_max_bound(3));
        assert!(matches!(
            result.verdict,
            Verdict::Inconclusive {
                bound_reached: 3,
                ..
            } | Verdict::Inconclusive {
                bound_reached: 2,
                ..
            }
        ));
    }

    #[test]
    fn handles_inputs_in_the_bad_cone() {
        // Bad = input ∧ latch; the latch turns on after one step.
        let mut aig = Aig::new();
        let trigger = aig::Lit::positive(aig.add_input());
        let armed = aig.add_latch(false);
        let armed_lit = aig.latch_lit(armed);
        aig.set_next(armed, aig::Lit::TRUE);
        let bad = aig.and(trigger, armed_lit);
        aig.add_bad(bad);
        let result = verify(&aig, &options());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 1 });
    }

    #[test]
    fn proves_a_design_with_irrelevant_latches() {
        // A stuck-at-zero flag plus free-running noise latches: the lemma
        // generalization must discard the noise.
        let mut aig = Aig::new();
        let flag = aig.add_latch(false);
        let flag_lit = aig.latch_lit(flag);
        aig.set_next(flag, aig::Lit::FALSE);
        for _ in 0..8 {
            let noise_input = aig::Lit::positive(aig.add_input());
            let noise = aig.add_latch(false);
            aig.set_next(noise, noise_input);
        }
        aig.add_bad(flag_lit);
        let result = verify(&aig, &options());
        assert!(result.verdict.is_proved(), "{}", result.verdict);
        // The parallel generalization screening must reach the same proof.
        let parallel = verify(&aig, &options().with_threads(4));
        assert!(parallel.verdict.is_proved(), "{}", parallel.verdict);
    }

    #[test]
    fn parallel_frames_match_the_sequential_verdicts() {
        for (modulus, bad_at) in [(6u64, 7u64), (6, 3), (10, 9), (14, 15)] {
            let aig = modular(4, modulus, bad_at);
            let sequential = verify(&aig, &options());
            let parallel = verify(&aig, &options().with_threads(4));
            assert_eq!(
                sequential.verdict.is_proved(),
                parallel.verdict.is_proved(),
                "modulus={modulus} bad_at={bad_at}: {} vs {}",
                sequential.verdict,
                parallel.verdict
            );
            if let Verdict::Falsified { depth } = sequential.verdict {
                assert_eq!(parallel.verdict, Verdict::Falsified { depth });
            }
        }
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        // Chunked merges are ordered, so repeated parallel runs (and runs
        // with different worker counts) must report identical verdicts.
        let aig = modular(5, 20, 31);
        let reference = verify(&aig, &options().with_threads(2));
        for threads in [2usize, 3, 8] {
            let again = verify(&aig, &options().with_threads(threads));
            assert_eq!(reference.verdict, again.verdict, "threads = {threads}");
        }
    }

    #[test]
    fn proved_runs_carry_a_checkable_invariant() {
        let aig = modular(3, 6, 7);
        let result = verify(&aig, &options());
        assert!(result.verdict.is_proved(), "{}", result.verdict);
        let Some(Certificate::Invariant(inv)) = &result.certificate else {
            panic!("proved PDR run must carry an invariant certificate");
        };
        assert_eq!(inv.num_latches, 3);
        let state = |v: u64| -> Vec<bool> { (0..3).map(|i| (v >> i) & 1 == 1).collect() };
        for v in 0..6 {
            assert!(inv.eval(&state(v)), "reachable state {v} must satisfy Inv");
        }
        assert!(!inv.eval(&state(7)), "the bad state must violate Inv");
        // The A/B switch: no certificate, same verdict.
        let off = verify(&aig, &options().with_certificates(false));
        assert_eq!(off.verdict, result.verdict);
        assert_eq!(off.certificate, None);
    }

    #[test]
    fn counterexample_chains_replay_to_the_bad_state() {
        for bad_at in [1u64, 3, 5, 9] {
            let aig = modular(4, 10, bad_at);
            let result = verify(&aig, &options());
            let depth = bad_at as usize;
            assert_eq!(result.verdict, Verdict::Falsified { depth });
            let Some(Certificate::Trace(inputs)) = &result.certificate else {
                panic!("falsified PDR run must carry a trace certificate");
            };
            assert_eq!(inputs.len(), depth + 1, "bad_at = {bad_at}");
            let sim = aig::simulate(&aig, inputs);
            assert!(sim.bad[depth][0], "replay must hit bad at depth {depth}");
        }
    }

    #[test]
    fn obligation_chains_record_the_inputs() {
        // Bad = input ∧ latch: the replay only works if the chain kept the
        // model's input values (the trigger must be high in cycle 1).
        let mut aig = Aig::new();
        let trigger = aig::Lit::positive(aig.add_input());
        let armed = aig.add_latch(false);
        let armed_lit = aig.latch_lit(armed);
        aig.set_next(armed, aig::Lit::TRUE);
        let bad = aig.and(trigger, armed_lit);
        aig.add_bad(bad);
        let result = verify(&aig, &options());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 1 });
        let Some(Certificate::Trace(inputs)) = &result.certificate else {
            panic!("missing trace");
        };
        let sim = aig::simulate(&aig, inputs);
        assert!(sim.bad[1][0], "replay must hit the bad state at depth 1");
    }

    #[test]
    fn multi_pdr_shares_one_invariant_and_replays_every_trace() {
        // A mod-6 counter with four properties: two falsified (depth 0 and
        // depth 3) and two proved (values 6 and 7 are unreachable).
        let mut aig = modular(3, 6, 0);
        let bits: Vec<aig::Lit> = (0..3).map(|l| aig.latch_lit(l)).collect();
        for value in [3u64, 6, 7] {
            let bad = word_equals_const(&mut aig, &bits, value);
            aig.add_bad(bad);
        }
        let result =
            verify_all_with_cancel(&aig, &[0, 1, 2, 3], &options(), &CancelToken::new(), None);
        let cert_of = |i: usize| match &result.statuses[i] {
            PropertyStatus::Proved { cert: Some(c), .. } => c.clone(),
            other => panic!("property {i} must be proved with a certificate, got {other:?}"),
        };
        for (i, depth) in [(0usize, 0usize), (1, 3)] {
            let PropertyStatus::Falsified {
                depth: d,
                cex: Some(inputs),
            } = &result.statuses[i]
            else {
                panic!(
                    "property {i} must be falsified with a trace, got {:?}",
                    result.statuses[i]
                );
            };
            assert_eq!(*d, depth);
            assert_eq!(inputs.len(), depth + 1);
            let sim = aig::simulate(&aig, inputs);
            assert!(
                sim.bad[depth][i],
                "property {i} must replay to depth {depth}"
            );
        }
        let (six, seven) = (cert_of(2), cert_of(3));
        assert!(
            std::sync::Arc::ptr_eq(&six, &seven),
            "survivors must share one invariant"
        );
        let state = |v: u64| -> Vec<bool> { (0..3).map(|i| (v >> i) & 1 == 1).collect() };
        for v in 0..6 {
            assert!(six.eval(&state(v)), "reachable state {v} must satisfy Inv");
        }
        assert!(!six.eval(&state(6)) && !six.eval(&state(7)));
    }

    #[test]
    fn cancellation_stops_the_run() {
        let aig = modular(5, 28, 27);
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = Engine::Pdr.run(&aig, 0, &options(), &cancel);
        match result.verdict {
            Verdict::Inconclusive { ref reason, .. } => assert_eq!(reason, "cancelled"),
            ref other => panic!("cancelled run must be inconclusive, got {other}"),
        }
    }

    #[test]
    fn certificate_compression_shrinks_a_suite_invariant() {
        // The 5-bit mod-20 counter is the smallest suite design whose
        // converged PDR trace parks a weaker lemma above a stronger one,
        // so its invariant certificate genuinely loses clauses to the
        // subsumption pass before emission.
        let bench = modular(5, 20, 31);
        let result = verify(
            &bench,
            &options()
                .with_timeout(std::time::Duration::from_secs(30))
                .with_max_bound(60),
        );
        assert!(result.verdict.is_proved(), "{}", result.verdict);
        assert!(
            result.stats.cert_clauses_subsumed > 0,
            "compression must drop at least one subsumed clause here"
        );
        let Some(Certificate::Invariant(inv)) = &result.certificate else {
            panic!("proved PDR run must carry an invariant certificate");
        };
        // The emitted certificate is fully compressed and still correct.
        assert_eq!(inv.clone().compress(), 0, "emission already compressed");
        let state = |v: u64| -> Vec<bool> { (0..5).map(|i| (v >> i) & 1 == 1).collect() };
        for v in 0..20 {
            assert!(inv.eval(&state(v)), "reachable state {v} must satisfy Inv");
        }
        assert!(!inv.eval(&state(31)), "the bad state must violate Inv");
    }
}
