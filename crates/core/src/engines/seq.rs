//! Shared machinery of the interpolation-sequence engines.
//!
//! The three sequence-based engines of the paper (`ITPSEQ`, `SITPSEQ`,
//! `ITPSEQCBA`) share one outer loop — Fig. 2 extended with the serial
//! computation of Fig. 4 and the abstraction-refinement of Fig. 5.  This
//! module implements that loop once, parameterised by:
//!
//! * the BMC check formulation (*exact-k* or *exact-assume-k*),
//! * the serial fraction `αs` (0 = fully parallel, 1 = fully serial),
//! * whether counterexample-based abstraction is enabled.
//!
//! The three engines are the three [`SeqConfig`]s below:
//!
//! * [`ITPSEQ`] — parallel interpolation sequences (`ITPSEQVERIF`,
//!   Fig. 2): every element of the sequence comes from the single
//!   refutation proof of the bounded check, and the column conjunctions
//!   `ℐ_j` accumulate across bounds and are checked for inclusion in the
//!   running reachability over-approximation;
//! * [`SITPSEQ`] — serial interpolation sequences (`SITPSEQ`, Fig. 4,
//!   Definition 3): the first `⌊αs · n⌋` elements are computed serially,
//!   every `I_j` from its own refutation of `I_{j-1} ∧ A_j ∧ ⋀_{i>j} A_i`,
//!   the rest in parallel from one proof.  The cumulative interpolation
//!   of the serial prefix tends to converge at smaller depths, at the
//!   price of extra SAT calls;
//! * [`ITPSEQCBA`] — SITPSEQ on a localization abstraction
//!   (`ITPSEQCBAVERIF`, Fig. 5): invisible latches become free inputs,
//!   abstract counterexamples are checked on the concrete design
//!   (`EXTEND`), and spurious ones refine the abstraction from the
//!   unsatisfiable assumption core (`REFINE`).  The smaller abstract
//!   model yields smaller refutation proofs and more aggressive
//!   over-approximation.

use crate::abstraction::Abstraction;
use crate::certificate::{Certificate, InvariantCert, InvariantCone};
use crate::engines::{fixpoint_check, CancelToken, EngineProbe, RunBudget};
use crate::state::{encode_state_lit, StateSpace};
use crate::{EngineResult, EngineStats, Options, Verdict};
use aig::Aig;
use cnf::{BmcCheck, Clause, IncrementalUnroller, Unroller};
use itp::InterpolationContext;
use sat::{Proof, SolveResult};
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;
use telemetry::{ArgValue, Telemetry};

/// Static configuration distinguishing the three sequence engines.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeqConfig {
    /// The engine's reporting name (labels its trace spans).
    pub name: &'static str,
    /// Compute the first [`Options::alpha_serial`] fraction of each
    /// sequence serially (Fig. 4); otherwise the whole sequence comes
    /// from one proof.
    pub serial: bool,
    /// Enable counterexample-based abstraction (Fig. 5).
    pub use_cba: bool,
}

/// Parallel interpolation sequences (Fig. 2).
pub(crate) const ITPSEQ: SeqConfig = SeqConfig {
    name: "ITPSEQ",
    serial: false,
    use_cba: false,
};

/// Serial interpolation sequences (Fig. 4).
pub(crate) const SITPSEQ: SeqConfig = SeqConfig {
    name: "SITPSEQ",
    serial: true,
    use_cba: false,
};

/// Serial interpolation sequences with counterexample-based abstraction
/// (Fig. 5).
pub(crate) const ITPSEQCBA: SeqConfig = SeqConfig {
    name: "ITPSEQCBA",
    serial: true,
    use_cba: true,
};

/// How frame 0 of an unrolling is constrained.
enum InitKind<'a> {
    /// The design's reset state.  The engine itself now serves reset
    /// instances from [`CachedUnrolling`]; this variant remains as the
    /// scratch reference the cache is tested bit-identical against.
    #[cfg_attr(not(test), allow(dead_code))]
    Reset,
    /// An arbitrary symbolic state set (used by serial steps).
    Set {
        space: &'a StateSpace,
        set: aig::Lit,
        concrete_to_model: &'a [usize],
    },
}

/// A built (partitioned) unrolling plus its frame variable maps.
struct SeqInstance {
    cnf: cnf::Cnf,
    frame_latches: Vec<Vec<cnf::Lit>>,
}

/// The per-run unrolling cache of the main bound loop: a persistent
/// [`IncrementalUnroller`] that keeps the reset-state unrolling of the
/// (possibly abstract) model alive across bounds, so growing the bound
/// only Tseitin-encodes the new frame instead of all `k` of them.
///
/// The produced instances are **bit-identical** to what
/// [`build_instance`] with [`InitKind::Reset`] builds from scratch — same
/// clauses, same order, same variable numbering, same partition labels —
/// because frame `f`'s clauses carry the same partition (`f + 1`) at every
/// bound and the bad cone of frame `f` always lands in partition `f + 2`
/// whether it is encoded as the bound-`f` target or as the assume-`k`
/// property constraint of a later bound (the tests pin this equality
/// down).  Only the per-bound target *unit* differs between bounds, so it
/// is kept out of the cache and appended to each snapshot.
///
/// The proof-logging SAT solver is deliberately *not* shared: every bound
/// solves a fresh snapshot, because the interpolation queries need a
/// refutation of exactly the bound-`k` partition layout.
struct CachedUnrolling {
    unroller: IncrementalUnroller,
    bad_index: usize,
    check: BmcCheck,
    /// Frames unrolled so far (0 = only the initial frame).
    bound: usize,
}

impl CachedUnrolling {
    fn new(model: &Aig, bad_index: usize, check: BmcCheck) -> CachedUnrolling {
        let mut unroller = IncrementalUnroller::new(model);
        unroller.builder_mut().set_partition(1);
        unroller.assert_initial(0);
        CachedUnrolling {
            unroller,
            bad_index,
            check,
            bound: 0,
        }
    }

    /// Extends the cached unrolling to `k` frames, mirroring the frame
    /// loop of [`build_instance`] (partition `f + 1` per transition, plus
    /// the assume-k property constraint on the previous frame).
    fn ensure_bound(&mut self, k: usize) {
        while self.bound < k {
            let f = self.bound + 1;
            self.unroller.builder_mut().set_partition((f + 1) as u32);
            if self.check == BmcCheck::ExactAssume && f >= 2 {
                let bad_prev = self.unroller.bad_lit(f - 1, self.bad_index);
                self.unroller.assert_lit(!bad_prev);
            }
            self.unroller.add_frame();
            self.bound = f;
        }
    }

    /// Produces the full bound-`k` instance for a fresh proof solver,
    /// reusing every cached frame encoding.
    fn instance(&mut self, k: usize, stats: &mut EngineStats) -> SeqInstance {
        let encode_start = Instant::now();
        self.ensure_bound(k);
        let target_partition = (k + 2) as u32;
        let cnf = match self.check {
            BmcCheck::ExactAssume => {
                // The bad cone of frame k belongs in the cache: the next
                // bound re-uses it for its property assumption (and it
                // carries the same partition label either way).
                self.unroller.builder_mut().set_partition(target_partition);
                let bad = self.unroller.bad_lit(k, self.bad_index);
                self.unroller
                    .snapshot_with([Clause::new(vec![bad], target_partition)])
            }
            BmcCheck::Exact | BmcCheck::Bound => {
                // exact-k never re-visits earlier bad cones, so the target
                // cone must *not* leak into the cache — encode it on a
                // throwaway clone, exactly as a scratch build would.
                let mut scratch = self.unroller.clone();
                scratch.builder_mut().set_partition(target_partition);
                let bad = scratch.bad_lit(k, self.bad_index);
                scratch.assert_lit(bad);
                scratch.into_cnf()
            }
        };
        let frame_latches = (0..=k).map(|f| self.unroller.latch_lits(f)).collect();
        stats.encode_time += encode_start.elapsed();
        SeqInstance { cnf, frame_latches }
    }
}

/// Builds the partitioned unrolling of `model` covering `transitions` steps,
/// where sub-frame 0 corresponds to absolute frame `offset` of a bound
/// `total_bound` problem.
///
/// Partition layout: 1 = the initial constraint, `1 + f` = the transition
/// into sub-frame `f` (plus the assume-k property assumption on sub-frame
/// `f - 1` when applicable), `transitions + 2` = the `¬p` target.
fn build_instance(
    model: &Aig,
    bad_index: usize,
    transitions: usize,
    offset: usize,
    total_bound: usize,
    check: BmcCheck,
    init: InitKind<'_>,
) -> SeqInstance {
    let mut unroller = Unroller::new(model);
    unroller.builder_mut().set_partition(1);
    match init {
        InitKind::Reset => unroller.assert_initial(0),
        InitKind::Set {
            space,
            set,
            concrete_to_model,
        } => {
            let lit = encode_state_lit(&mut unroller, 0, space, set, concrete_to_model);
            unroller.assert_lit(lit);
        }
    }
    for f in 1..=transitions {
        unroller.builder_mut().set_partition((f + 1) as u32);
        let absolute = offset + f - 1;
        if check == BmcCheck::ExactAssume && absolute >= 1 && absolute < total_bound {
            let bad_prev = unroller.bad_lit(f - 1, bad_index);
            unroller.assert_lit(!bad_prev);
        }
        unroller.add_frame();
    }
    unroller
        .builder_mut()
        .set_partition((transitions + 2) as u32);
    let bad = unroller.bad_lit(transitions, bad_index);
    unroller.assert_lit(bad);
    let frame_latches = (0..=transitions).map(|f| unroller.latch_lits(f)).collect();
    SeqInstance {
        cnf: unroller.into_cnf(),
        frame_latches,
    }
}

fn solve(
    cnf: &cnf::Cnf,
    stats: &mut EngineStats,
    budget: &RunBudget,
    reduce: Option<u64>,
    probe: &EngineProbe,
    telemetry: &Telemetry,
) -> (SolveResult, Option<Proof>) {
    let mut solver = budget.solver();
    solver.set_reduce_interval(reduce);
    solver.set_progress_probe(probe.probe());
    solver.add_cnf(cnf);
    stats.sat_calls += 1;
    stats.clauses_encoded += cnf.clauses.len() as u64;
    let query = telemetry.span_args("sat", || {
        vec![("clauses", ArgValue::U64(cnf.clauses.len() as u64))]
    });
    let result = solver.solve();
    query.end();
    stats.add_solver_delta(solver.stats());
    let proof = if result == SolveResult::Unsat {
        solver.proof()
    } else {
        None
    };
    (result, proof)
}

/// Re-derives a replayable input trace for a bound-`bound` falsification
/// of `model` on a throwaway scratch instance.
///
/// The cached unrolling cannot serve the trace directly: pinning input
/// variables inside the cache would perturb its variable numbering, which
/// is tested bit-identical against scratch builds (and under the exact-k
/// formulation the target cone lives on a throwaway clone anyway).  One
/// extra SAT call on the terminal path — the instance is known
/// satisfiable — buys the model back without touching the cache.
#[allow(clippy::too_many_arguments)]
fn falsification_trace(
    model: &Aig,
    bad_index: usize,
    bound: usize,
    check: BmcCheck,
    num_inputs: usize,
    reduce: Option<u64>,
    stats: &mut EngineStats,
    budget: &RunBudget,
) -> Option<Vec<Vec<bool>>> {
    let encode_start = Instant::now();
    let mut unroller = Unroller::new(model);
    unroller.assert_initial(0);
    for f in 1..=bound {
        if check == BmcCheck::ExactAssume && f >= 2 {
            let bad_prev = unroller.bad_lit(f - 1, bad_index);
            unroller.assert_lit(!bad_prev);
        }
        unroller.add_frame();
    }
    let bad = unroller.bad_lit(bound, bad_index);
    unroller.assert_lit(bad);
    let frame_inputs: Vec<Vec<cnf::Lit>> = (0..=bound)
        .map(|f| (0..num_inputs).map(|i| unroller.input_lit(f, i)).collect())
        .collect();
    let cnf = unroller.into_cnf();
    let mut solver = budget.solver();
    solver.set_proof_logging(false);
    solver.set_reduce_interval(reduce);
    solver.add_cnf(&cnf);
    stats.sat_calls += 1;
    stats.clauses_encoded += cnf.clauses.len() as u64;
    stats.encode_time += encode_start.elapsed();
    let result = solver.solve();
    stats.add_solver_delta(solver.stats());
    if result != SolveResult::Sat {
        return None;
    }
    Some(
        frame_inputs
            .iter()
            .map(|frame| {
                frame
                    .iter()
                    .map(|&lit| solver.lit_value(lit).unwrap_or(false))
                    .collect()
            })
            .collect(),
    )
}

/// Extracts the interpolants at the given sub-instance cuts, mapping shared
/// frame variables to state-space latches.
fn extract_interpolants(
    proof: &Proof,
    instance: &SeqInstance,
    cuts: &[u32],
    space: &mut StateSpace,
    model_to_concrete: &[usize],
    stats: &mut EngineStats,
) -> Result<Vec<aig::Lit>, String> {
    let mut var_to_latch: HashMap<u32, usize> = HashMap::new();
    for lits in &instance.frame_latches {
        for (model_latch, lit) in lits.iter().enumerate() {
            var_to_latch.insert(lit.var().index(), model_to_concrete[model_latch]);
        }
    }
    let latch_lits: Vec<aig::Lit> = (0..space.num_latches()).map(|i| space.latch(i)).collect();
    let ctx = InterpolationContext::new(proof).map_err(|e| e.to_string())?;
    let itps = ctx
        .sequence_for_cuts(cuts, space.manager_mut(), &|_, v| {
            let latch = *var_to_latch
                .get(&v.index())
                .expect("shared interpolant variables are frame latch variables");
            latch_lits[latch]
        })
        .map_err(|e| e.to_string())?;
    stats.interpolants += itps.len() as u64;
    Ok(itps)
}

/// Computes the interpolation sequence `I_1 … I_k` for bound `k`, given the
/// already-refuted full instance and its proof, using the serial/parallel
/// mix requested by `alpha_serial` (Fig. 4).
#[allow(clippy::too_many_arguments)]
fn compute_sequence(
    model: &Aig,
    bound: usize,
    check: BmcCheck,
    alpha_serial: f64,
    reduce: Option<u64>,
    probe: &EngineProbe,
    space: &mut StateSpace,
    model_to_concrete: &[usize],
    concrete_to_model: &[usize],
    full_instance: &SeqInstance,
    full_proof: &Proof,
    stats: &mut EngineStats,
    budget: &RunBudget,
    telemetry: &Telemetry,
) -> Result<Vec<aig::Lit>, crate::types::StopReason> {
    use crate::types::StopReason;
    let n = bound + 1;
    let serial = ((alpha_serial * n as f64).floor() as usize).min(bound);
    let mut sequence: Vec<aig::Lit> = Vec::with_capacity(bound);

    // Serial part: I_j = ITP(I_{j-1} ∧ A_j, ⋀_{i>j} A_i), each from its own
    // refutation.  The first step reuses the proof of the full instance
    // (its A side is exactly S0 ∧ A_1).
    for j in 1..=serial {
        let (instance, proof) = if j == 1 {
            (None, Cow::Borrowed(full_proof))
        } else {
            let prev = sequence[j - 2];
            let encode_start = Instant::now();
            let inst = build_instance(
                model,
                0,
                bound - j + 1,
                j - 1,
                bound,
                check,
                InitKind::Set {
                    space,
                    set: prev,
                    concrete_to_model,
                },
            );
            stats.encode_time += encode_start.elapsed();
            let (result, proof) = solve(&inst.cnf, stats, budget, reduce, probe, telemetry);
            match result {
                SolveResult::Unsat => {}
                SolveResult::Sat => {
                    return Err(StopReason::other(format!(
                        "serial interpolation step {j} was unexpectedly satisfiable"
                    )));
                }
                SolveResult::Interrupted => return Err(budget.interrupt_reason()),
            }
            (
                Some(inst),
                Cow::Owned(proof.expect("unsat result has a proof")),
            )
        };
        let inst_ref = instance.as_ref().unwrap_or(full_instance);
        let itp = extract_interpolants(&proof, inst_ref, &[2], space, model_to_concrete, stats)
            .map_err(StopReason::other)?;
        sequence.push(itp[0]);
    }

    // Parallel part: the remaining elements all come from one proof.
    if serial < bound {
        if serial == 0 {
            // Plain interpolation sequence: every element from the proof of
            // the full instance.
            let cuts: Vec<u32> = (2..=(bound + 1) as u32).collect();
            let itps = extract_interpolants(
                full_proof,
                full_instance,
                &cuts,
                space,
                model_to_concrete,
                stats,
            )
            .map_err(StopReason::other)?;
            sequence.extend(itps);
        } else {
            let prev = sequence[serial - 1];
            let encode_start = Instant::now();
            let inst = build_instance(
                model,
                0,
                bound - serial,
                serial,
                bound,
                check,
                InitKind::Set {
                    space,
                    set: prev,
                    concrete_to_model,
                },
            );
            stats.encode_time += encode_start.elapsed();
            let (result, proof) = solve(&inst.cnf, stats, budget, reduce, probe, telemetry);
            match result {
                SolveResult::Unsat => {}
                SolveResult::Sat => {
                    return Err(StopReason::other(
                        "parallel remainder of the serial sequence was unexpectedly satisfiable",
                    ));
                }
                SolveResult::Interrupted => return Err(budget.interrupt_reason()),
            }
            let proof = proof.expect("unsat result has a proof");
            let cuts: Vec<u32> = (2..=(bound - serial + 1) as u32).collect();
            let itps = extract_interpolants(&proof, &inst, &cuts, space, model_to_concrete, stats)
                .map_err(StopReason::other)?;
            sequence.extend(itps);
        }
    }
    debug_assert_eq!(sequence.len(), bound);
    Ok(sequence)
}

enum ExtendOutcome {
    /// The abstract counterexample concretises: the property fails.  The
    /// payload is the concrete input trace read off the satisfying
    /// assignment (`None` when certificate collection is off).
    ConcreteCounterexample(Option<Vec<Vec<bool>>>),
    /// The counterexample was spurious; the abstraction has been refined.
    Refined,
    /// The run was cancelled mid-check.
    Cancelled,
}

/// Checks an abstract counterexample against the concrete design
/// (Fig. 5's `EXTEND`) and refines the abstraction from the unsatisfiable
/// assumption core when it is spurious (`REFINE`).
#[allow(clippy::too_many_arguments)]
fn extend_or_refine(
    design: &Aig,
    bad_index: usize,
    bound: usize,
    abstraction: &mut Abstraction,
    check: BmcCheck,
    reduce: Option<u64>,
    record_trace: bool,
    stats: &mut EngineStats,
    budget: &RunBudget,
    telemetry: &Telemetry,
) -> ExtendOutcome {
    let _extend = telemetry.span_args("extend", || vec![("k", ArgValue::U64(bound as u64))]);
    let encode_start = Instant::now();
    let mut unroller = Unroller::new(design);
    let mut guards: Vec<Option<cnf::Lit>> = vec![None; design.num_latches()];
    let mut activation: Vec<(cnf::Lit, usize)> = Vec::new();
    for (latch, guard) in guards.iter_mut().enumerate() {
        if !abstraction.is_visible(latch) {
            let a = unroller.builder_mut().new_lit();
            *guard = Some(a);
            activation.push((a, latch));
        }
    }
    unroller.assert_initial_guarded(0, &guards);
    for f in 1..=bound {
        if check == BmcCheck::ExactAssume && f >= 2 {
            let bad_prev = unroller.bad_lit(f - 1, bad_index);
            unroller.assert_lit(!bad_prev);
        }
        unroller.add_frame_guarded(&guards);
    }
    let bad = unroller.bad_lit(bound, bad_index);
    unroller.assert_lit(bad);
    // Pin the concrete input variables of every cycle before the unroller
    // is consumed, so a concretised counterexample can be read back as a
    // replayable trace (input variables carry no clauses).
    let frame_inputs: Vec<Vec<cnf::Lit>> = if record_trace {
        (0..=bound)
            .map(|f| {
                (0..design.num_inputs())
                    .map(|i| unroller.input_lit(f, i))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };

    let cnf = unroller.into_cnf();
    let mut solver = budget.solver();
    // This query only reads the assumption core on Unsat, never a proof —
    // skip chain recording so DB reduction stays unrestricted.
    solver.set_proof_logging(false);
    solver.set_reduce_interval(reduce);
    solver.add_cnf(&cnf);
    stats.sat_calls += 1;
    stats.clauses_encoded += cnf.clauses.len() as u64;
    stats.encode_time += encode_start.elapsed();
    let assumptions: Vec<cnf::Lit> = activation.iter().map(|&(a, _)| a).collect();
    let result = solver.solve_with_assumptions(&assumptions);
    stats.add_solver_delta(solver.stats());
    match result {
        SolveResult::Sat => {
            let trace = record_trace.then(|| {
                frame_inputs
                    .iter()
                    .map(|frame| {
                        frame
                            .iter()
                            .map(|&lit| solver.lit_value(lit).unwrap_or(false))
                            .collect()
                    })
                    .collect()
            });
            ExtendOutcome::ConcreteCounterexample(trace)
        }
        SolveResult::Interrupted => ExtendOutcome::Cancelled,
        SolveResult::Unsat => {
            let core = solver.assumption_core();
            let mut to_add: Vec<usize> = activation
                .iter()
                .filter(|&&(a, _)| core.contains(&a) || core.contains(&!a))
                .map(|&(_, latch)| latch)
                .collect();
            if to_add.is_empty() {
                // Defensive fallback: refine with every invisible latch.
                to_add = activation.iter().map(|&(_, latch)| latch).collect();
            }
            abstraction.refine(to_add);
            ExtendOutcome::Refined
        }
    }
}

/// The shared outer loop of the sequence-based engines.  The serial
/// fraction is [`Options::alpha_serial`] for a `serial` config and 0
/// otherwise.
pub(crate) fn run(
    design: &Aig,
    bad_index: usize,
    options: &Options,
    config: SeqConfig,
    cancel: &CancelToken,
) -> EngineResult {
    let start = Instant::now();
    let budget = RunBudget::arm(cancel, start, options);
    let stop_reason = || budget.stop_reason();
    let telemetry = &options.telemetry;
    let run_label = format!("{}.run", config.name);
    let _run = telemetry.span_args(&run_label, || {
        vec![
            ("latches", ArgValue::U64(design.num_latches() as u64)),
            ("cba", ArgValue::U64(u64::from(config.use_cba))),
        ]
    });
    let alpha_serial = if config.serial {
        options.alpha_serial
    } else {
        0.0
    };
    let mut stats = EngineStats::default();
    let probe = EngineProbe::new(telemetry, options.probe_interval);
    let mut space = StateSpace::new(design.num_latches(), budget.incremental_solver());
    // `ℐ_j` column conjunctions, persisted across bounds (1-based index j).
    let mut columns: Vec<aig::Lit> = Vec::new();

    if let Some((verdict, certificate)) =
        crate::engines::bmc::depth0_verdict(design, bad_index, &budget, &mut stats, options)
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

    let mut abstraction = if config.use_cba {
        Abstraction::initial(design, bad_index)
    } else {
        Abstraction::full(design)
    };
    stats.visible_latches = abstraction.num_visible();
    let mut current = abstraction.abstract_model(design, bad_index);
    // The unrolling cache of the current model; dropped on refinement
    // (the abstract model — and with it every frame encoding — changes).
    let mut cache: Option<CachedUnrolling> = None;

    let finish = |mut stats: EngineStats,
                  verdict: Verdict,
                  certificate: Option<Certificate>,
                  start: Instant| {
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

    for k in 1..=options.max_bound {
        if let Some(reason) = stop_reason() {
            return finish(
                stats,
                Verdict::Inconclusive {
                    reason,
                    bound_reached: k - 1,
                },
                None,
                start,
            );
        }
        let _bound = telemetry.span_args("bound", || vec![("k", ArgValue::U64(k as u64))]);
        probe.set_bound(k);

        // Bounded check at bound k (on the abstract model when CBA is on),
        // interleaved with abstraction refinement.  The reset-state
        // unrolling comes from the per-model cache, so only the new frame
        // is Tseitin-encoded when the bound grows.
        let (instance, proof) = loop {
            let (model, _) = &current;
            // The abstract model carries exactly one bad-state literal —
            // the copy of `bad_index` — at index 0 (passing the concrete
            // index here panicked on every property but the first).
            let instance = cache
                .get_or_insert_with(|| CachedUnrolling::new(model, 0, options.check))
                .instance(k, &mut stats);
            let (result, proof) = solve(
                &instance.cnf,
                &mut stats,
                &budget,
                options.reduce_interval(),
                &probe,
                telemetry,
            );
            match result {
                SolveResult::Unsat => break (instance, proof.expect("unsat result has a proof")),
                SolveResult::Interrupted => {
                    return finish(
                        stats,
                        Verdict::Inconclusive {
                            reason: budget.interrupt_reason(),
                            bound_reached: k - 1,
                        },
                        None,
                        start,
                    );
                }
                SolveResult::Sat => {
                    if !config.use_cba || abstraction.is_complete(design) {
                        // The model is (behaviourally) the design here: CBA
                        // only falsifies through this path once complete,
                        // and its inputs then coincide with the design's.
                        let cert = options
                            .certificates
                            .then(|| {
                                falsification_trace(
                                    model,
                                    0,
                                    k,
                                    options.check,
                                    design.num_inputs(),
                                    options.reduce_interval(),
                                    &mut stats,
                                    &budget,
                                )
                            })
                            .flatten()
                            .map(Certificate::Trace);
                        return finish(stats, Verdict::Falsified { depth: k }, cert, start);
                    }
                    match extend_or_refine(
                        design,
                        bad_index,
                        k,
                        &mut abstraction,
                        options.check,
                        options.reduce_interval(),
                        options.certificates,
                        &mut stats,
                        &budget,
                        telemetry,
                    ) {
                        ExtendOutcome::ConcreteCounterexample(trace) => {
                            let cert = trace.map(Certificate::Trace);
                            return finish(stats, Verdict::Falsified { depth: k }, cert, start);
                        }
                        ExtendOutcome::Cancelled => {
                            return finish(
                                stats,
                                Verdict::Inconclusive {
                                    reason: budget.interrupt_reason(),
                                    bound_reached: k - 1,
                                },
                                None,
                                start,
                            );
                        }
                        ExtendOutcome::Refined => {
                            stats.refinements += 1;
                            stats.visible_latches = abstraction.num_visible();
                            telemetry.instant_args("refine", || {
                                vec![
                                    ("k", ArgValue::U64(k as u64)),
                                    (
                                        "visible_latches",
                                        ArgValue::U64(abstraction.num_visible() as u64),
                                    ),
                                ]
                            });
                            current = abstraction.abstract_model(design, bad_index);
                            cache = None;
                        }
                    }
                }
            }
            if let Some(reason) = stop_reason() {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason,
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            }
        };

        // Interpolation sequence for this bound.
        let (model, model_to_concrete) = &current;
        let mut concrete_to_model = vec![usize::MAX; design.num_latches()];
        for (model_latch, &concrete) in model_to_concrete.iter().enumerate() {
            concrete_to_model[concrete] = model_latch;
        }
        let interpolate =
            telemetry.span_args("interpolate", || vec![("k", ArgValue::U64(k as u64))]);
        let sequence = match compute_sequence(
            model,
            k,
            options.check,
            alpha_serial,
            options.reduce_interval(),
            &probe,
            &mut space,
            model_to_concrete,
            &concrete_to_model,
            &instance,
            &proof,
            &mut stats,
            &budget,
            telemetry,
        ) {
            Ok(sequence) => sequence,
            Err(reason) => {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason,
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            }
        };
        interpolate.end();

        // Column conjunctions and fixed-point checks (Fig. 2's inner loop).
        let initial_lits: Vec<aig::Lit> = (0..model.num_latches())
            .map(|i| {
                space
                    .latch(model_to_concrete[i])
                    .xor_complement(!model.init(i))
            })
            .collect();
        let r0 = space.manager_mut().and_many(initial_lits);
        let mut reached = r0;
        for j in 1..=k {
            if columns.len() < j {
                columns.push(aig::Lit::TRUE);
            }
            columns[j - 1] = space.and(columns[j - 1], sequence[j - 1]);
            let Some(fixpoint) =
                fixpoint_check(&mut space, columns[j - 1], reached, &mut stats, telemetry)
            else {
                return finish(
                    stats,
                    Verdict::Inconclusive {
                        reason: budget.interrupt_reason(),
                        bound_reached: k,
                    },
                    None,
                    start,
                );
            };
            if fixpoint {
                // `reached = R0 ∨ ℐ_1 ∨ … ∨ ℐ_{j-1}` is an inductive
                // invariant here: it contains the initial states, every
                // column excludes the bad states (its bound-j conjunct's B
                // side is exactly the bad target, and the bad cone's latch
                // support is visible in every abstraction), R0's visible
                // reset values are bad-free by the depth-0 check, and the
                // image of each disjunct lands in the next column — which
                // the fixpoint folds back into `reached`.
                let cert = options.certificates.then(|| {
                    let _emit = telemetry.span("certificate.emit");
                    let identity: Vec<usize> = (0..design.num_latches()).collect();
                    Certificate::Invariant(InvariantCert {
                        num_latches: design.num_latches(),
                        clauses: Vec::new(),
                        cone: Some(InvariantCone::from_cone(
                            space.manager(),
                            reached,
                            design.num_latches(),
                            &identity,
                        )),
                    })
                });
                return finish(stats, Verdict::Proved { k_fp: k, j_fp: j }, cert, start);
            }
            reached = space.or(reached, columns[j - 1]);
        }
    }

    finish(
        stats,
        Verdict::Inconclusive {
            reason: crate::types::StopReason::BoundExhausted,
            bound_reached: options.max_bound,
        },
        None,
        start,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Engine;
    use aig::builder::{latch_word, word_equals_const, word_increment, word_mux};
    use workloads::counter::modular;

    /// Runs `engine` on property 0 of `aig`, with no preprocessing.
    fn verify(engine: Engine, aig: &Aig, options: &Options) -> EngineResult {
        engine.run(aig, 0, options, &CancelToken::new())
    }

    fn gated_counter(width: usize) -> Aig {
        let mut aig = Aig::new();
        let en = aig::Lit::positive(aig.add_input());
        let (ids, bits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &bits, en);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &bits, (1 << width) - 1);
        aig.add_bad(bad);
        aig
    }

    /// A design where half the latches are irrelevant to the property, so
    /// the abstraction should stay strictly smaller than the design.
    fn counter_with_dead_logic(bad_at: u64) -> Aig {
        let mut aig = modular(3, 6, bad_at);
        // Irrelevant free-running toggles driven by an input.
        let noise_in = aig::Lit::positive(aig.add_input());
        for _ in 0..4 {
            let l = aig.add_latch(false);
            let cur = aig.latch_lit(l);
            let next = aig.xor(cur, noise_in);
            aig.set_next(l, next);
        }
        aig
    }

    /// `engine` proves the counter values its modulus never reaches and
    /// computes interpolants doing so.
    pub(crate) fn proves_unreachable_counter_values(engine: Engine) {
        for bad_at in [6u64, 7] {
            let result = verify(engine, &modular(3, 6, bad_at), &Options::default());
            assert!(
                result.verdict.is_proved(),
                "{engine} bad_at={bad_at}: {}",
                result.verdict
            );
            assert!(result.stats.interpolants > 0, "{engine} bad_at={bad_at}");
        }
    }

    /// `engine` falsifies reachable counter values at their exact depth.
    pub(crate) fn falsifies_at_the_exact_depth(engine: Engine) {
        for bad_at in [2u64, 3, 5] {
            let result = verify(engine, &modular(3, 6, bad_at), &Options::default());
            assert_eq!(
                result.verdict,
                Verdict::Falsified {
                    depth: bad_at as usize
                },
                "{engine} bad_at={bad_at}"
            );
        }
    }

    /// `engine` agrees with exact BDD reachability on every counter value,
    /// with and without irrelevant latches beside the counter.
    pub(crate) fn matches_exact_bdd_reachability(engine: Engine) {
        let designs = (1..8u64)
            .map(|bad_at| modular(3, 6, bad_at))
            .chain([1u64, 3, 6, 7].map(counter_with_dead_logic));
        for aig in designs {
            let exact = bdd::reach::analyze(&aig, 0, 1_000_000);
            let got = verify(engine, &aig, &Options::default());
            let context = format!("{engine} on {} ({} latches)", aig.name(), aig.num_latches());
            match exact.verdict {
                bdd::BddVerdict::Pass => {
                    assert!(got.verdict.is_proved(), "{context}: {}", got.verdict)
                }
                bdd::BddVerdict::Fail { depth } => {
                    assert_eq!(got.verdict, Verdict::Falsified { depth }, "{context}")
                }
                bdd::BddVerdict::Overflow => unreachable!("tiny design cannot overflow"),
            }
        }
    }

    #[test]
    fn exact_and_assume_checks_agree_on_verdicts() {
        for bad_at in [2u64, 7] {
            let aig = modular(3, 6, bad_at);
            let exact = verify(
                Engine::ItpSeq,
                &aig,
                &Options::default().with_check(BmcCheck::Exact),
            );
            let assume = verify(
                Engine::ItpSeq,
                &aig,
                &Options::default().with_check(BmcCheck::ExactAssume),
            );
            assert_eq!(
                exact.verdict.is_proved(),
                assume.verdict.is_proved(),
                "bad_at={bad_at}"
            );
            assert_eq!(
                exact.verdict.is_falsified(),
                assume.verdict.is_falsified(),
                "bad_at={bad_at}"
            );
        }
    }

    #[test]
    fn bound_budget_exhaustion_is_inconclusive() {
        // The counter needs bound 6 of reasoning; cap it at 2.
        let aig = modular(3, 6, 7);
        let result = verify(Engine::ItpSeq, &aig, &Options::default().with_max_bound(2));
        assert!(matches!(
            result.verdict,
            Verdict::Inconclusive {
                bound_reached: 2,
                ..
            } | Verdict::Proved { .. }
        ));
    }

    #[test]
    fn every_alpha_setting_is_sound() {
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for bad_at in [3u64, 7] {
                let aig = modular(3, 6, bad_at);
                let exact = bdd::reach::analyze(&aig, 0, 1_000_000);
                let got = verify(
                    Engine::SerialItpSeq,
                    &aig,
                    &Options::default().with_alpha(alpha),
                );
                match exact.verdict {
                    bdd::BddVerdict::Pass => assert!(
                        got.verdict.is_proved(),
                        "alpha={alpha} bad_at={bad_at}: {}",
                        got.verdict
                    ),
                    bdd::BddVerdict::Fail { depth } => assert_eq!(
                        got.verdict,
                        Verdict::Falsified { depth },
                        "alpha={alpha} bad_at={bad_at}"
                    ),
                    bdd::BddVerdict::Overflow => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn serial_steps_issue_more_sat_calls_than_parallel() {
        let aig = modular(3, 6, 7);
        let run = |alpha: f64| {
            verify(
                Engine::SerialItpSeq,
                &aig,
                &Options::default().with_alpha(alpha),
            )
        };
        let (parallel, serial) = (run(0.0), run(1.0));
        assert!(parallel.verdict.is_proved());
        assert!(serial.verdict.is_proved());
        assert!(serial.stats.sat_calls >= parallel.stats.sat_calls);
    }

    #[test]
    fn abstraction_ignores_irrelevant_latches() {
        let aig = counter_with_dead_logic(7);
        let result = verify(Engine::ItpSeqCba, &aig, &Options::default());
        assert!(result.verdict.is_proved(), "verdict: {}", result.verdict);
        assert!(
            result.stats.visible_latches <= 3,
            "only the counter latches should become visible, got {}",
            result.stats.visible_latches
        );
    }

    #[test]
    fn refinement_occurs_when_property_depends_on_hidden_state() {
        // The property reads only the top bit of a counter that wraps at
        // 3, so bit 2 never rises; the initial abstraction hides the lower
        // bits and must be refined before the proof succeeds.
        let mut aig = Aig::new();
        let (ids, bits) = latch_word(&mut aig, 3, 0);
        let wrap = word_equals_const(&mut aig, &bits, 3);
        let inc = word_increment(&mut aig, &bits, aig::Lit::TRUE);
        let zero = aig::builder::word_const(3, 0);
        let next = word_mux(&mut aig, wrap, &zero, &inc);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        aig.add_bad(bits[2]);
        let result = verify(Engine::ItpSeqCba, &aig, &Options::default());
        assert!(result.verdict.is_proved(), "verdict: {}", result.verdict);
    }

    /// The cached unrolling must reproduce the scratch instance *exactly*:
    /// same clauses in the same order with the same partition labels and
    /// variable numbering — that is what keeps proofs, interpolants and
    /// therefore every reported `k_fp`/`j_fp` bit-identical to the
    /// pre-cache engine.
    #[test]
    fn cached_instances_are_bit_identical_to_scratch_builds() {
        let designs = [modular(3, 6, 7), gated_counter(3)];
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            for design in &designs {
                let mut cache = CachedUnrolling::new(design, 0, check);
                let mut stats = EngineStats::default();
                for k in 1..=6usize {
                    let cached = cache.instance(k, &mut stats);
                    let scratch = build_instance(design, 0, k, 0, k, check, InitKind::Reset);
                    assert_eq!(
                        cached.cnf, scratch.cnf,
                        "{check:?} bound {k}: clauses must match exactly"
                    );
                    assert_eq!(
                        cached.frame_latches, scratch.frame_latches,
                        "{check:?} bound {k}: frame maps must match exactly"
                    );
                }
            }
        }
    }

    /// Re-requesting the same bound (the CBA refinement loop does this)
    /// must not grow the cache or change the instance.
    #[test]
    fn repeated_instances_at_one_bound_are_stable() {
        let design = modular(3, 6, 7);
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            let mut cache = CachedUnrolling::new(&design, 0, check);
            let mut stats = EngineStats::default();
            let first = cache.instance(4, &mut stats);
            let clauses_after_first = cache.unroller.num_clauses();
            let second = cache.instance(4, &mut stats);
            assert_eq!(cache.unroller.num_clauses(), clauses_after_first);
            assert_eq!(first.cnf, second.cnf, "{check:?}");
        }
    }

    /// Growing bound-by-bound and jumping straight to `k` (a fresh cache
    /// after a refinement) must produce the same instance.
    #[test]
    fn incremental_growth_matches_fresh_growth() {
        let design = gated_counter(3);
        for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
            let mut grown = CachedUnrolling::new(&design, 0, check);
            let mut stats = EngineStats::default();
            for k in 1..=5usize {
                let _ = grown.instance(k, &mut stats);
            }
            let mut fresh = CachedUnrolling::new(&design, 0, check);
            let a = grown.instance(5, &mut stats);
            let b = fresh.instance(5, &mut stats);
            assert_eq!(a.cnf, b.cnf, "{check:?}");
        }
    }
}
