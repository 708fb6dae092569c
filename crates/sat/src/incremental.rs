//! Incremental solving with activation-literal clause retirement.
//!
//! The base [`Solver`](crate::Solver) only ever *adds* clauses.  That is
//! enough for the one-shot refutations of the interpolation engines, but
//! IC3/PDR-style engines issue thousands of queries against a slowly
//! growing clause database and need *temporary* clauses: the `¬cube` part
//! of a relative-induction query must disappear once the query is
//! answered.
//!
//! [`IncrementalSolver`] implements the classic activation-literal scheme:
//!
//! * a *permanent* clause `C` is added as-is,
//! * a *retirable* clause `C` is added as `(¬a ∨ C)` for a fresh
//!   activation variable `a`; the clause is only in force while `a` is
//!   assumed true,
//! * [`retire`](IncrementalSolver::retire) adds the unit `¬a`, which
//!   permanently satisfies (and thereby deactivates) the guarded clause,
//! * [`assert_group`](IncrementalSolver::assert_group) guards a whole
//!   *set* of clauses behind one caller-allocated activation literal (an
//!   assertion group), retired as a unit — the shape the incremental BMC
//!   engine uses for its per-bound target clauses,
//! * [`solve`](IncrementalSolver::solve) automatically assumes every
//!   live activation literal, so callers only pass their own assumptions,
//! * [`assumption_core`](IncrementalSolver::assumption_core) filters the
//!   activation literals back out, so callers see a core over *their*
//!   assumptions only.
//!
//! # Activation-variable recycling
//!
//! A retired activation variable is pinned false forever, so its slot can
//! never be reused directly — a long PDR run would leak one variable per
//! relative-induction query.  The solver therefore *recycles*: once every
//! [`recycle threshold`](IncrementalSolver::set_recycle_threshold) many
//! retirements (and only while no retirable clause is live), it rebuilds
//! the underlying solver from the recorded base formula and permanent
//! clauses, compacting the variable range back to the caller's own
//! variables.  Search statistics, VSIDS activities and saved phases are
//! carried across rebuilds (so the branching heuristics stay warm);
//! learned clauses and cached models are discarded.
//!
//! Independent of recycling, every 32 retirements the solver sweeps
//! root-satisfied clauses — the ones the retirement units permanently
//! deactivated — out of the clause database and the watch lists
//! ([`Solver::remove_root_satisfied`]), so propagation does not slow down
//! linearly in the number of retired queries.
//!
//! Recycling silently disables itself when caller variables and
//! activation variables interleave (a [`new_var`](IncrementalSolver::new_var)
//! or implicit clause-literal allocation after the first retirable
//! clause), because a rebuild could not preserve the caller's variable
//! numbering in that case.
//!
//! ```
//! use cnf::Lit;
//! use sat::{IncrementalSolver, SolveResult};
//!
//! let mut solver = IncrementalSolver::new();
//! let x = Lit::positive(solver.new_var());
//! solver.add_clause([x]);
//! let guard = solver.add_retirable_clause([!x]);
//! assert_eq!(solver.solve(&[]), SolveResult::Unsat);
//! solver.retire(guard);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! ```

use crate::solver::{ProgressProbe, SolveResult, Solver, SolverStats, DEFAULT_REDUCE_FIRST};
use cnf::{Cnf, Lit, Var};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Default number of retirements between two recycling rebuilds.
const DEFAULT_RECYCLE_THRESHOLD: u64 = 4096;

/// Retirements between two root-satisfied sweeps of the clause database
/// (see [`Solver::remove_root_satisfied`]): every retirement permanently
/// satisfies its guarded clauses, and the sweep removes them from the
/// watch lists instead of letting them clog propagation forever.
const RETIRE_SWEEP_INTERVAL: u64 = 32;

/// Handle of a retirable clause: the activation literal guarding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClauseGuard(Lit);

/// A [`Solver`] wrapper supporting temporary clauses through activation
/// literals, with periodic recycling of retired activation variables.
///
/// See the module-level documentation of `sat::incremental` for the
/// scheme and an example.
#[derive(Clone, Debug)]
pub struct IncrementalSolver {
    solver: Solver,
    /// Activation literals of clauses that are still in force.
    live: Vec<Lit>,
    /// Count of clauses retired so far (statistics only).
    retired: u64,
    /// The formula the solver was seeded with, replayed on recycling.
    base: Cnf,
    /// Permanent clauses added after construction, replayed on recycling.
    permanent: Vec<Vec<Lit>>,
    /// Number of caller-owned variables (base formula plus `new_var`).
    user_vars: u32,
    /// Set when caller variables were allocated after activation
    /// variables; disables recycling to preserve variable numbering.
    interleaved: bool,
    /// Retirements since the last rebuild.
    retired_since_rebuild: u64,
    /// Retirements between rebuilds (0 disables recycling).
    recycle_threshold: u64,
    /// Total activation variables reclaimed by rebuilds.
    recycled_vars: u64,
    /// Statistics of solvers discarded by rebuilds.
    stats_offset: SolverStats,
    /// Interrupt flag re-installed on every rebuilt solver.
    interrupt: Option<Arc<AtomicBool>>,
    /// Progress probe re-installed on every rebuilt solver.
    probe: Option<ProgressProbe>,
    /// Conflict budget re-installed on every rebuilt solver.
    conflict_limit: Option<u64>,
    /// Learned-DB reduction trigger re-installed on every rebuilt solver
    /// (`None` disables reduction; see [`Solver::set_reduce_interval`]).
    reduce_interval: Option<u64>,
    /// Shared memory budget re-installed on every rebuilt solver.
    mem_budget: Option<crate::MemoryBudget>,
    /// Fault-injection plan re-installed on every rebuilt solver.
    faults: crate::FaultPlan,
    /// Retirements since the last root-satisfied sweep.
    retired_since_sweep: u64,
}

impl Default for IncrementalSolver {
    fn default() -> IncrementalSolver {
        // Incremental consumers (IC3/PDR, the incremental BMC engine) only
        // need SAT/UNSAT answers and cores, never proofs — run the solver
        // without chain recording so learned-DB reduction is unrestricted.
        let mut solver = Solver::new();
        solver.set_proof_logging(false);
        IncrementalSolver {
            solver,
            live: Vec::new(),
            retired: 0,
            base: Cnf::default(),
            permanent: Vec::new(),
            user_vars: 0,
            interleaved: false,
            retired_since_rebuild: 0,
            recycle_threshold: DEFAULT_RECYCLE_THRESHOLD,
            recycled_vars: 0,
            stats_offset: SolverStats::default(),
            interrupt: None,
            probe: None,
            conflict_limit: None,
            reduce_interval: Some(DEFAULT_REDUCE_FIRST),
            mem_budget: None,
            faults: crate::FaultPlan::none(),
            retired_since_sweep: 0,
        }
    }
}

impl IncrementalSolver {
    /// Creates an empty incremental solver.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::default()
    }

    /// Creates an incremental solver preloaded with a base formula.
    pub fn with_base(cnf: &Cnf) -> IncrementalSolver {
        let mut solver = IncrementalSolver::new();
        solver.base = cnf.clone();
        solver.user_vars = cnf.num_vars;
        solver.solver.add_cnf(cnf);
        solver
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        if self.solver.num_vars() > self.user_vars {
            // Caller variables now interleave with activation variables; a
            // rebuild could not keep this variable's index stable.
            self.interleaved = true;
        } else {
            self.user_vars += 1;
        }
        self.solver.new_var()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.solver.num_vars()
    }

    /// Number of live clauses in the underlying solver (retired clauses
    /// leave this count once a periodic sweep or rebuild culls them).
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Number of retirable clauses still in force.
    pub fn num_live(&self) -> usize {
        self.live.len()
    }

    /// Number of clauses retired so far.
    pub fn num_retired(&self) -> u64 {
        self.retired
    }

    /// Total activation variables reclaimed by recycling rebuilds.
    pub fn num_recycled_vars(&self) -> u64 {
        self.recycled_vars
    }

    /// Sets how many retirements may accumulate before the solver rebuilds
    /// itself to reclaim retired activation variables.
    ///
    /// `0` disables recycling *for good*: the replay bookkeeping (the base
    /// formula and permanent-clause recording that a rebuild would need)
    /// is dropped and no longer maintained, so a consumer that streams a
    /// large formula through [`add_clause`](Self::add_clause) — the
    /// incremental BMC engine, whose caller-owned activation variables a
    /// rebuild could never reclaim anyway — does not pay for a second
    /// copy of it.
    pub fn set_recycle_threshold(&mut self, threshold: u64) {
        self.recycle_threshold = threshold;
        if threshold == 0 {
            // The recording is incomplete from here on; make sure a later
            // re-enable can never rebuild from it.
            self.interleaved = true;
            self.base = Cnf::default();
            self.permanent = Vec::new();
        }
    }

    /// Installs (or clears) a shared interrupt flag; see
    /// [`Solver::set_interrupt`].  The flag survives recycling rebuilds.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag.clone();
        self.solver.set_interrupt(flag);
    }

    /// Installs (or clears) a periodic statistics observer; see
    /// [`Solver::set_progress_probe`].  The probe survives recycling
    /// rebuilds.
    pub fn set_progress_probe(&mut self, probe: Option<ProgressProbe>) {
        self.probe = probe.clone();
        self.solver.set_progress_probe(probe);
    }

    /// Caps the conflicts of each solve call; see
    /// [`Solver::set_conflict_limit`].  The budget survives recycling
    /// rebuilds.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
        self.solver.set_conflict_limit(limit);
    }

    /// Sets the learned-clause count that triggers the underlying
    /// solver's next database reduction (`None` disables reduction); see
    /// [`Solver::set_reduce_interval`].  The setting survives recycling
    /// rebuilds.
    pub fn set_reduce_interval(&mut self, first: Option<u64>) {
        self.reduce_interval = first;
        self.solver.set_reduce_interval(first);
    }

    /// Installs (or clears) a shared memory budget; see
    /// [`Solver::set_memory_budget`].  The budget survives recycling
    /// rebuilds (the discarded solver releases its registration, the
    /// rebuilt one registers afresh).
    pub fn set_memory_budget(&mut self, budget: Option<crate::MemoryBudget>) {
        self.mem_budget = budget.clone();
        self.solver.set_memory_budget(budget);
    }

    /// Installs a fault-injection plan; see [`Solver::set_faults`].  The
    /// plan survives recycling rebuilds (and, firing exactly once, never
    /// re-fires on the rebuilt solver).
    pub fn set_faults(&mut self, faults: crate::FaultPlan) {
        self.faults = faults.clone();
        self.solver.set_faults(faults);
    }

    /// The installed fault-injection plan, so a layer built around this
    /// solver can tick its own fault site on the run's shared plan.
    pub fn faults(&self) -> &crate::FaultPlan {
        &self.faults
    }

    /// Returns the accumulated search statistics (including solvers
    /// discarded by recycling rebuilds).
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats_offset;
        stats += self.solver.stats();
        stats
    }

    /// Notes caller-owned variables referenced by a new clause, disabling
    /// recycling when they interleave with solver-allocated activation
    /// variables (numbering would not be rebuild-stable).
    fn note_user_vars(&mut self, lits: &[Lit]) {
        if let Some(max) = lits.iter().map(|l| l.var().index() + 1).max() {
            if max > self.user_vars {
                if self.solver.num_vars() > self.user_vars {
                    // The clause implicitly allocates variables above the
                    // live activation range: numbering is no longer
                    // rebuild-stable.
                    self.interleaved = true;
                } else {
                    self.user_vars = max;
                }
            }
        }
    }

    /// Adds a permanent clause (partition 0: incremental queries take no
    /// part in interpolation).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        self.note_user_vars(&lits);
        // The recording only exists to replay clauses on a recycling
        // rebuild; once recycling is off (threshold 0 or interleaved
        // numbering) it would be a dead second copy of the formula.
        if !self.interleaved && self.recycle_threshold != 0 {
            self.permanent.push(lits.clone());
        }
        self.solver.add_clause(lits, 0);
    }

    /// Adds a clause that can later be retired; returns its guard.
    ///
    /// The clause is in force for every [`solve`](Self::solve) call until
    /// [`retire`](Self::retire) is called on the guard.
    pub fn add_retirable_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> ClauseGuard {
        let activation = Lit::positive(self.solver.new_var());
        let guarded: Vec<Lit> = std::iter::once(!activation).chain(lits).collect();
        self.solver.add_clause(guarded, 0);
        self.live.push(activation);
        ClauseGuard(activation)
    }

    /// Adds an *assertion group*: every clause in `clauses` is guarded by
    /// the caller-allocated `activation` literal and stays in force (the
    /// literal is assumed automatically by [`solve`](Self::solve)) until
    /// the returned guard is [`retire`](Self::retire)d, which deactivates
    /// the whole group at once.
    ///
    /// Unlike [`add_retirable_clause`](Self::add_retirable_clause), the
    /// activation variable is owned by the *caller* — the pattern used by
    /// the incremental BMC engine, where one variable-numbering authority
    /// (the unroller) allocates every variable, so later frame extensions
    /// can never collide with solver-internal activation variables.
    ///
    /// # Panics
    ///
    /// Panics if `activation` is negated: guards must be positive literals
    /// so that retirement (the unit `¬activation`) means what it says.
    pub fn assert_group<I, C>(&mut self, activation: Lit, clauses: I) -> ClauseGuard
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Lit>,
    {
        assert!(
            activation.is_positive(),
            "group activation literal must be positive"
        );
        self.note_user_vars(&[activation]);
        for clause in clauses {
            let guarded: Vec<Lit> = std::iter::once(!activation).chain(clause).collect();
            self.note_user_vars(&guarded);
            self.solver.add_clause(guarded, 0);
        }
        self.live.push(activation);
        ClauseGuard(activation)
    }

    /// Permanently deactivates the clause behind `guard`.
    ///
    /// The guarded clause stays in the solver but is satisfied by the unit
    /// `¬a`, so it never constrains or propagates again.  Once enough
    /// retirements accumulate (and no retirable clause is live), the
    /// solver rebuilds itself and reclaims the retired activation
    /// variables — any [`ClauseGuard`] held across such a rebuild is
    /// stale and must not be retired again.
    pub fn retire(&mut self, guard: ClauseGuard) {
        if let Some(position) = self.live.iter().position(|&a| a == guard.0) {
            self.live.swap_remove(position);
            self.solver.add_clause([!guard.0], 0);
            self.retired += 1;
            self.retired_since_rebuild += 1;
            self.retired_since_sweep += 1;
            if self.retired_since_sweep >= RETIRE_SWEEP_INTERVAL {
                self.retired_since_sweep = 0;
                // The retired units permanently satisfy their guarded
                // clauses; sweep them (and any root-satisfied learned
                // clauses) out of the database and the watch lists.
                self.solver.remove_root_satisfied();
            }
            self.maybe_recycle();
        }
    }

    /// Rebuilds the underlying solver when enough activation variables
    /// have been retired, reclaiming their variable slots.
    fn maybe_recycle(&mut self) {
        if self.interleaved
            || self.recycle_threshold == 0
            || self.retired_since_rebuild < self.recycle_threshold
            || !self.live.is_empty()
        {
            return;
        }
        let mut fresh = Solver::new();
        fresh.set_proof_logging(false);
        fresh.add_cnf(&self.base);
        fresh.ensure_vars(self.user_vars);
        for clause in &self.permanent {
            fresh.add_clause(clause.iter().copied(), 0);
        }
        fresh.set_interrupt(self.interrupt.clone());
        fresh.set_progress_probe(self.probe.clone());
        fresh.set_conflict_limit(self.conflict_limit);
        fresh.set_reduce_interval(self.reduce_interval);
        fresh.set_memory_budget(self.mem_budget.clone());
        fresh.set_faults(self.faults.clone());
        // Warm-start the rebuilt solver: the caller's VSIDS activities and
        // saved phases survive the rebuild, so a long PDR run does not
        // restart its branching heuristics from scratch every few thousand
        // retirements.  (Learned clauses are still discarded — their
        // variable numbering may mention retired activation variables.)
        let (activity, phase, var_inc) = self.solver.heuristics(self.user_vars);
        fresh.restore_heuristics(&activity, &phase, var_inc);
        self.recycled_vars += u64::from(self.solver.num_vars() - self.user_vars);
        self.stats_offset += self.solver.stats();
        self.retired_since_rebuild = 0;
        self.solver = fresh;
    }

    /// Solves under `assumptions` with every live retirable clause active.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        // Activation literals go first: they are unconditionally true, so a
        // core caused by the caller's assumptions stays expressed in terms
        // of the trailing (caller) positions.
        let mut all = self.live.clone();
        all.extend_from_slice(assumptions);
        self.solver.solve_with_assumptions(&all)
    }

    /// Returns the subset of the *caller's* assumptions responsible for the
    /// last `Unsat` answer, with activation literals filtered out.
    pub fn assumption_core(&self) -> Vec<Lit> {
        self.solver
            .assumption_core()
            .iter()
            .copied()
            .filter(|l| !self.live.contains(l) && !self.live.contains(&!*l))
            .collect()
    }

    /// Returns the value assigned to `var` by the most recent satisfiable
    /// call, or `None` when unassigned.
    pub fn value(&self, var: Var) -> Option<bool> {
        self.solver.value(var)
    }

    /// Returns the value of a literal under the current assignment.
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.solver.lit_value(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut IncrementalSolver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(solver.new_var())).collect()
    }

    #[test]
    fn retired_clauses_stop_constraining() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let g1 = s.add_retirable_clause([!v[0]]);
        let g2 = s.add_retirable_clause([!v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        s.retire(g1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.lit_value(v[1]), Some(false));
        assert_eq!(s.lit_value(v[0]), Some(true));
        s.retire(g2);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.num_retired(), 2);
        assert_eq!(s.num_live(), 0);
    }

    #[test]
    fn disabled_recycling_skips_replay_bookkeeping() {
        let mut s = IncrementalSolver::new();
        s.set_recycle_threshold(0);
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        for _ in 0..16 {
            let g = s.add_retirable_clause([!v[0]]);
            let _ = s.solve(&[]);
            s.retire(g);
        }
        // No rebuilds happen (and nothing was recorded for one), yet the
        // solver keeps answering from the live clause database.
        assert_eq!(s.num_recycled_vars(), 0);
        assert_eq!(s.num_retired(), 16);
        assert_eq!(s.solve(&[!v[1]]), SolveResult::Sat);
        assert_eq!(s.lit_value(v[0]), Some(true));
        assert_eq!(s.solve(&[!v[0], !v[1]]), SolveResult::Unsat);
    }

    #[test]
    fn assertion_groups_retire_as_a_unit() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        // Caller-allocated activation literal guarding two clauses.
        let act = Lit::positive(s.new_var());
        let guard = s.assert_group(act, [vec![!v[0]], vec![!v[1], !v[2]]]);
        // Both clauses are in force while the group is live.
        assert_eq!(s.solve(&[v[1], v[2]]), SolveResult::Unsat);
        let core = s.assumption_core();
        assert!(
            core.iter().all(|l| *l == v[1] || *l == v[2]),
            "activation literals must not leak into cores: {core:?}"
        );
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.lit_value(v[0]), Some(false));
        // Retiring the group deactivates both clauses at once.
        s.retire(guard);
        assert_eq!(s.solve(&[v[0], v[1], v[2]]), SolveResult::Sat);
        assert_eq!(s.num_retired(), 1);
    }

    #[test]
    fn successive_groups_model_growing_bound_targets() {
        // The incremental BMC pattern: a growing disjunction re-asserted
        // under a fresh group per bound, the previous group retired.
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 4);
        for (bound, lit) in v.iter().enumerate() {
            // "some bad up to this bound" — but every bad is pinned false
            // so far, so each bound answers Unsat until the last.
            let act = Lit::positive(s.new_var());
            let clause: Vec<Lit> = v[..=bound].to_vec();
            let guard = s.assert_group(act, [clause]);
            if bound < 3 {
                s.add_clause([!*lit]);
                assert_eq!(s.solve(&[]), SolveResult::Unsat, "bound {bound}");
                s.retire(guard);
            } else {
                assert_eq!(s.solve(&[]), SolveResult::Sat, "bound {bound}");
                assert_eq!(s.lit_value(v[3]), Some(true));
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_group_activation_is_rejected() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 1);
        let _ = s.assert_group(!v[0], [vec![v[0]]]);
    }

    #[test]
    fn double_retire_is_harmless() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 1);
        let g = s.add_retirable_clause([v[0]]);
        s.retire(g);
        s.retire(g);
        assert_eq!(s.num_retired(), 1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn cores_hide_activation_literals() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 3);
        // Retirable clause (¬x0 ∨ ¬x1) plus irrelevant assumption x2.
        let _g = s.add_retirable_clause([!v[0], !v[1]]);
        assert_eq!(s.solve(&[v[2], v[0], v[1]]), SolveResult::Unsat);
        let core = s.assumption_core();
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                [v[0], v[1], v[2]].contains(l),
                "core literal {l} must be a caller assumption"
            );
        }
    }

    #[test]
    fn live_clauses_survive_interleaved_queries() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 2);
        let _keep = s.add_retirable_clause([v[0]]);
        let drop = s.add_retirable_clause([v[1]]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.lit_value(v[0]), Some(true));
        s.retire(drop);
        assert_eq!(s.solve(&[!v[1]]), SolveResult::Sat);
        assert_eq!(s.lit_value(v[0]), Some(true));
        assert_eq!(s.lit_value(v[1]), Some(false));
    }

    #[test]
    fn with_base_loads_the_formula() {
        let mut builder = cnf::CnfBuilder::new();
        let x = builder.new_lit();
        builder.add_clause([x]);
        let mut s = IncrementalSolver::with_base(&builder.into_cnf());
        assert_eq!(s.solve(&[!x]), SolveResult::Unsat);
        assert_eq!(s.assumption_core(), vec![!x]);
    }

    #[test]
    fn recycling_bounds_the_variable_range() {
        let mut builder = cnf::CnfBuilder::new();
        let x = builder.new_lit();
        let y = builder.new_lit();
        builder.add_clause([x, y]);
        let mut s = IncrementalSolver::with_base(&builder.into_cnf());
        s.set_recycle_threshold(8);
        let baseline = s.num_vars();
        // A long PDR-like run: thousands of short-lived retirable clauses.
        for round in 0..200 {
            let g = s.add_retirable_clause([if round % 2 == 0 { !x } else { !y }]);
            let _ = s.solve(&[x]);
            s.retire(g);
        }
        assert_eq!(s.num_retired(), 200);
        assert!(s.num_recycled_vars() >= 150, "must reclaim retired vars");
        assert!(
            s.num_vars() <= baseline + 8,
            "activation range must stay bounded, got {} vars",
            s.num_vars()
        );
        // The formula is still the same after all those rebuilds.
        assert_eq!(s.solve(&[!x, !y]), SolveResult::Unsat);
        assert_eq!(s.solve(&[!x]), SolveResult::Sat);
        assert_eq!(s.lit_value(y), Some(true));
    }

    #[test]
    fn recycling_replays_permanent_clauses() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 3);
        s.set_recycle_threshold(4);
        s.add_clause([v[0], v[1]]);
        for _ in 0..16 {
            let g = s.add_retirable_clause([!v[2]]);
            let _ = s.solve(&[]);
            s.retire(g);
        }
        // Permanent clauses added before and between rebuilds must all be
        // in force afterwards.
        s.add_clause([!v[1]]);
        assert_eq!(s.solve(&[!v[0]]), SolveResult::Unsat);
        assert!(s.num_recycled_vars() > 0);
    }

    #[test]
    fn recycling_preserves_statistics_monotonicity() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 4);
        s.set_recycle_threshold(2);
        s.add_clause([v[0], v[1], v[2], v[3]]);
        let mut last = 0;
        for _ in 0..12 {
            let g = s.add_retirable_clause([!v[0], !v[1]]);
            let _ = s.solve(&[v[0], v[1]]);
            s.retire(g);
            let now = s.stats().propagations;
            assert!(now >= last, "stats must never go backwards");
            last = now;
        }
    }

    #[test]
    fn interleaved_user_variables_disable_recycling() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 1);
        s.set_recycle_threshold(1);
        let g = s.add_retirable_clause([v[0]]);
        // Allocating a caller variable after an activation variable makes
        // variable numbering rebuild-unstable: recycling must back off.
        let w = Lit::positive(s.new_var());
        s.add_clause([v[0], w]);
        s.retire(g);
        for _ in 0..8 {
            let g = s.add_retirable_clause([!w]);
            s.retire(g);
        }
        assert_eq!(s.num_recycled_vars(), 0);
        // The solver keeps answering correctly, it just leaks as before.
        assert_eq!(s.solve(&[!v[0], !w]), SolveResult::Unsat);
    }

    #[test]
    fn saved_phases_survive_recycling_rebuilds() {
        let mut s = IncrementalSolver::new();
        s.set_recycle_threshold(1);
        let v = lits(&mut s, 4);
        s.add_clause([v[0], v[1], v[2], v[3]]);
        // Establish non-default saved phases: force all variables true.
        assert_eq!(s.solve(&[v[0], v[1], v[2], v[3]]), SolveResult::Sat);
        // Trigger a recycling rebuild (no intermediate solve: the rebuild
        // itself must carry the phases over).
        let g = s.add_retirable_clause([v[0], v[1]]);
        s.retire(g);
        assert!(s.num_recycled_vars() > 0, "rebuild must have happened");
        // Phase saving steers the free solve towards the remembered
        // all-true assignment; a cold-started solver would pick false.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for &l in &v {
            assert_eq!(s.lit_value(l), Some(true), "phase of {l} lost in rebuild");
        }
    }

    #[test]
    fn retirement_sweeps_shrink_the_clause_database() {
        let mut s = IncrementalSolver::new();
        // Recycling off: the sweep is the only mechanism culling retired
        // clauses.
        s.set_recycle_threshold(0);
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let mut peak = 0;
        for round in 0..200 {
            let g = s.add_retirable_clause([if round % 2 == 0 { !v[0] } else { !v[1] }]);
            let _ = s.solve(&[]);
            s.retire(g);
            peak = peak.max(s.num_clauses());
        }
        // 200 guarded clauses plus 200 retirement units were added; the
        // periodic sweep keeps the live database from accumulating them.
        assert!(
            s.num_clauses() < 150,
            "sweeps must cull retired clauses, live database has {}",
            s.num_clauses()
        );
        assert_eq!(s.solve(&[v[0]]), SolveResult::Sat);
        assert_eq!(s.solve(&[!v[0], !v[1]]), SolveResult::Unsat);
    }

    #[test]
    fn reduce_interval_survives_recycling() {
        let mut s = IncrementalSolver::new();
        s.set_recycle_threshold(1);
        s.set_reduce_interval(None);
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let g = s.add_retirable_clause([!v[0]]);
        s.retire(g); // triggers a rebuild
        assert_eq!(s.stats().db_reductions, 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn interrupt_and_budget_survive_recycling() {
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 2);
        s.set_recycle_threshold(1);
        s.add_clause([v[0], v[1]]);
        let flag = Arc::new(AtomicBool::new(false));
        s.set_interrupt(Some(flag.clone()));
        let g = s.add_retirable_clause([!v[0]]);
        s.retire(g); // triggers a rebuild
        flag.store(true, std::sync::atomic::Ordering::Release);
        assert_eq!(s.solve(&[]), SolveResult::Interrupted);
        flag.store(false, std::sync::atomic::Ordering::Release);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn memory_budget_survives_recycling() {
        let budget = crate::MemoryBudget::new(u64::MAX);
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 2);
        s.set_recycle_threshold(1);
        s.add_clause([v[0], v[1]]);
        s.set_memory_budget(Some(budget.clone()));
        assert!(budget.used() > 0, "the wrapped solver registers");
        let g = s.add_retirable_clause([!v[0]]);
        s.retire(g); // triggers a rebuild
        assert!(
            budget.used() > 0,
            "the rebuilt solver registers afresh (and the discarded one released)"
        );
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        drop(s);
        assert_eq!(budget.used(), 0, "dropping releases everything");
    }

    #[test]
    fn fault_plans_survive_recycling_without_refiring() {
        use crate::{FaultKind, FaultPlan, FaultSite};
        // Fires on the 2nd allocation, well before the rebuild.
        let plan = FaultPlan::inject(FaultSite::Alloc, FaultKind::Interrupt, 2);
        let mut s = IncrementalSolver::new();
        let v = lits(&mut s, 2);
        s.set_recycle_threshold(1);
        s.set_faults(plan.clone());
        s.add_clause([v[0], v[1]]);
        let g = s.add_retirable_clause([!v[0]]);
        assert!(plan.fired(), "the second allocation ticks the site");
        assert_eq!(
            s.solve(&[]),
            SolveResult::Interrupted,
            "the injected stop lands once"
        );
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.retire(g); // triggers a rebuild, replaying clauses — must not re-fire
        assert_eq!(
            s.solve(&[]),
            SolveResult::Sat,
            "no re-fire after the rebuild"
        );
    }
}
