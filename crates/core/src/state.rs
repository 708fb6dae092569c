//! Symbolic state sets shared by the interpolation engines.
//!
//! Interpolants, their column conjunctions `ℐ_j` and the accumulated
//! reachability over-approximations `R_j` are all Boolean functions over
//! the design latches.  They are stored as literals of a single
//! combinational [`aig::Aig`] manager whose primary input `i` stands for
//! latch `i`; containment checks (`ℐ_j ⇒ R_{j-1}`) are discharged with the
//! SAT solver, and state sets are re-encoded into time-frame CNF when they
//! seed the next bounded check.
//!
//! # The persistent fixpoint solver
//!
//! Every containment check of a run goes to one [`sat::IncrementalSolver`]
//! owned by the [`StateSpace`].  The engines take it from their run budget,
//! so timeout, cancellation, the memory budget and fault injection reach
//! the fixpoint layer like every other solver of the run.
//!
//! This works because the manager is **grow-only**: nodes are appended and
//! structurally hashed, never removed or rewritten, so a node id names the
//! same function for the whole run.  The space therefore keeps one SAT
//! variable per latch and a Tseitin cache keyed by manager node.  A check
//! `a ⇒ b` encodes only the nodes of the two cones it has not seen before,
//! appends their definitional clauses to the solver and solves under the
//! assumptions `[a, ¬b]`.  The solver's clause database holds nothing but
//! definitions, which every later check is consistent with, so its learned
//! clauses stay valid from one check to the next.  Nothing is ever
//! retired either, so the solver keeps no replay copy for recycling.

use aig::Aig;
use cnf::tseitin::{encode_cone, NodeCache};
use cnf::{CnfBuilder, Unroller};
use sat::{FaultKind, FaultSite, IncrementalSolver, SolveResult};

/// A manager for symbolic state sets over the latches of one design.
#[derive(Clone, Debug)]
pub struct StateSpace {
    mgr: Aig,
    latch_inputs: Vec<aig::Lit>,
    /// Allocates the fixpoint solver's variables; its clauses are drained
    /// into `solver` after every encode.
    builder: CnfBuilder,
    /// Tseitin literal of every manager node encoded so far, seeded with
    /// the latch variables.
    cache: NodeCache,
    solver: IncrementalSolver,
}

impl StateSpace {
    /// Creates a state space for a design with `num_latches` latches whose
    /// containment checks all run on `solver` (see the module docs).
    pub fn new(num_latches: usize, mut solver: IncrementalSolver) -> StateSpace {
        let mut mgr = Aig::new();
        let mut builder = CnfBuilder::new();
        let mut cache = NodeCache::default();
        let latch_inputs = (0..num_latches)
            .map(|_| {
                let id = mgr.add_input();
                cache.insert(id, builder.new_lit());
                aig::Lit::positive(id)
            })
            .collect();
        solver.set_recycle_threshold(0);
        StateSpace {
            mgr,
            latch_inputs,
            builder,
            cache,
            solver,
        }
    }

    /// Number of latches (dimensions) of the state space.
    pub fn num_latches(&self) -> usize {
        self.latch_inputs.len()
    }

    /// Returns the literal standing for latch `i`.
    pub fn latch(&self, i: usize) -> aig::Lit {
        self.latch_inputs[i]
    }

    /// Gives mutable access to the underlying circuit manager (used by the
    /// interpolation context to build interpolants in place).  Callers may
    /// only add nodes: the fixpoint solver's cache relies on every existing
    /// node keeping its id and function.
    pub fn manager_mut(&mut self) -> &mut Aig {
        &mut self.mgr
    }

    /// Gives read access to the underlying circuit manager.
    pub fn manager(&self) -> &Aig {
        &self.mgr
    }

    /// The state set containing exactly the initial state(s) of `design`.
    pub fn initial_states(&mut self, design: &Aig) -> aig::Lit {
        let lits: Vec<aig::Lit> = (0..design.num_latches())
            .map(|i| self.latch(i).xor_complement(!design.init(i)))
            .collect();
        self.mgr.and_many(lits)
    }

    /// Conjunction of two state sets.
    pub fn and(&mut self, a: aig::Lit, b: aig::Lit) -> aig::Lit {
        self.mgr.and(a, b)
    }

    /// Disjunction of two state sets.
    pub fn or(&mut self, a: aig::Lit, b: aig::Lit) -> aig::Lit {
        self.mgr.or(a, b)
    }

    /// Checks the implication `a ⇒ b` on the persistent fixpoint solver
    /// (an assumption query for `a ∧ ¬b`).  Returns `None` when the
    /// governed solver was interrupted before it could answer.
    ///
    /// Every call is one tick of the [`FaultSite::Fixpoint`] injection
    /// site of the solver's fault plan.
    ///
    /// # Panics
    ///
    /// Panics when an injected panic or allocation-failure fault fires
    /// here; the engine dispatch boundary contains it.
    pub fn implies(&mut self, a: aig::Lit, b: aig::Lit) -> Option<bool> {
        match self.solver.faults().tick(FaultSite::Fixpoint) {
            Some(FaultKind::Panic) => panic!("injected fault: panic at fixpoint check"),
            Some(FaultKind::AllocFail) => {
                panic!("injected fault: allocation failure at fixpoint check")
            }
            Some(FaultKind::Interrupt) => return None,
            None => {}
        }
        if a == aig::Lit::FALSE || b == aig::Lit::TRUE || a == b {
            return Some(true);
        }
        let a_lit = self.encode(a);
        let b_lit = self.encode(b);
        match self.solver.solve(&[a_lit, !b_lit]) {
            SolveResult::Unsat => Some(true),
            SolveResult::Sat => Some(false),
            SolveResult::Interrupted => None,
        }
    }

    /// Encodes the not-yet-encoded part of `set`'s cone and hands its
    /// definitional clauses to the fixpoint solver.
    fn encode(&mut self, set: aig::Lit) -> cnf::Lit {
        let lit = encode_cone(
            &mut self.builder,
            &self.mgr,
            set,
            &mut self.cache,
            &mut |_, id| unreachable!("latch input {id} is pre-seeded in the cache"),
        );
        for clause in self.builder.drain_clauses() {
            self.solver.add_clause(clause.lits);
        }
        // A latch variable that no clause mentions yet can still be an
        // assumption.
        while self.solver.num_vars() < self.builder.num_vars() {
            self.solver.new_var();
        }
        lit
    }

    /// Evaluates a state set on a concrete latch valuation.
    pub fn contains(&self, set: aig::Lit, latches: &[bool]) -> bool {
        self.mgr.eval(set, latches, &[])
    }
}

/// Encodes a state-set literal of `space` over the latch variables of
/// `frame` in `unroller`, returning the CNF literal equisatisfiable with
/// "the state at `frame` belongs to the set".
///
/// `latch_map[i]` gives the index, within the unrolled design, of the latch
/// that dimension `i` of the state space talks about; pass the identity for
/// unabstracted models.
pub fn encode_state_lit(
    unroller: &mut Unroller<'_>,
    frame: usize,
    space: &StateSpace,
    set: aig::Lit,
    latch_map: &[usize],
) -> cnf::Lit {
    let frame_latches = unroller.latch_lits(frame);
    encode_cone(
        unroller.builder_mut(),
        space.manager(),
        set,
        &mut NodeCache::default(),
        &mut |_, id| match space.manager().node(id) {
            aig::AigNode::Input { index } => frame_latches[latch_map[index]],
            _ => unreachable!("state sets only depend on latch inputs"),
        },
    )
}

// The state-space tests run outside any engine run, so their reference
// solves use bare, ungoverned solvers.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sat::Solver;

    fn space(num_latches: usize) -> StateSpace {
        StateSpace::new(num_latches, IncrementalSolver::new())
    }

    /// The fresh-solver implication check the persistent solver replaced:
    /// a scratch encoding of both cones and an ungoverned one-shot solve.
    fn implies_fresh(space: &StateSpace, a: aig::Lit, b: aig::Lit) -> bool {
        if a == aig::Lit::FALSE || b == aig::Lit::TRUE || a == b {
            return true;
        }
        let mut builder = CnfBuilder::new();
        let vars: Vec<cnf::Lit> = (0..space.num_latches())
            .map(|_| builder.new_lit())
            .collect();
        let mut cache = NodeCache::default();
        let mut leaf = |_: &mut CnfBuilder, id: aig::NodeId| match space.manager().node(id) {
            aig::AigNode::Input { index } => vars[index],
            _ => unreachable!("state sets only depend on latch inputs"),
        };
        let a_lit = encode_cone(&mut builder, space.manager(), a, &mut cache, &mut leaf);
        let b_lit = encode_cone(&mut builder, space.manager(), b, &mut cache, &mut leaf);
        builder.add_unit(a_lit);
        builder.add_unit(!b_lit);
        let mut solver = Solver::new();
        solver.add_cnf(&builder.into_cnf());
        solver.solve() == SolveResult::Unsat
    }

    fn two_latch_design() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_latch(false);
        let b = aig.add_latch(true);
        let _ = (a, b);
        aig
    }

    #[test]
    fn initial_states_matches_reset_values() {
        let design = two_latch_design();
        let mut ss = space(2);
        let init = ss.initial_states(&design);
        assert!(ss.contains(init, &[false, true]));
        assert!(!ss.contains(init, &[true, true]));
        assert!(!ss.contains(init, &[false, false]));
    }

    #[test]
    fn implication_checks() {
        let mut ss = space(2);
        let a = ss.latch(0);
        let b = ss.latch(1);
        let ab = ss.and(a, b);
        let a_or_b = ss.or(a, b);
        assert_eq!(ss.implies(ab, a), Some(true));
        assert_eq!(ss.implies(ab, a_or_b), Some(true));
        assert_eq!(ss.implies(a, a_or_b), Some(true));
        assert_eq!(ss.implies(a_or_b, ab), Some(false));
        assert_eq!(ss.implies(a, b), Some(false));
        assert_eq!(ss.implies(aig::Lit::FALSE, a), Some(true));
        assert_eq!(ss.implies(a, aig::Lit::TRUE), Some(true));
        assert_eq!(ss.implies(aig::Lit::TRUE, a), Some(false));
        assert_eq!(ss.implies(a, aig::Lit::FALSE), Some(false));
    }

    #[test]
    fn interrupted_checks_report_no_answer() {
        let mut solver = IncrementalSolver::new();
        solver.set_interrupt(Some(std::sync::Arc::new(
            std::sync::atomic::AtomicBool::new(true),
        )));
        let mut ss = StateSpace::new(2, solver);
        let (a, b) = (ss.latch(0), ss.latch(1));
        let ab = ss.and(a, b);
        assert_eq!(ss.implies(a, ab), None);
        assert_eq!(
            ss.implies(ab, ab),
            Some(true),
            "trivial checks need no solve"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over one manager that keeps growing, the persistent solver
        /// agrees with the fresh-solver reference on every check, and both
        /// agree with brute-force evaluation over all latch valuations.
        #[test]
        fn persistent_implies_matches_fresh_reference(
            ops in proptest::collection::vec(
                ((0u8..3, 0usize..64, 0usize..64), (proptest::bool::ANY, proptest::bool::ANY)),
                1..48,
            ),
        ) {
            const LATCHES: usize = 4;
            let mut ss = space(LATCHES);
            let mut sets: Vec<aig::Lit> = (0..LATCHES).map(|i| ss.latch(i)).collect();
            sets.push(aig::Lit::TRUE);
            sets.push(aig::Lit::FALSE);
            for &((op, x, y), (neg_x, neg_y)) in &ops {
                let a = sets[x % sets.len()].xor_complement(neg_x);
                let b = sets[y % sets.len()].xor_complement(neg_y);
                match op {
                    0 => sets.push(ss.and(a, b)),
                    1 => sets.push(ss.or(a, b)),
                    _ => {}
                }
                let expected = implies_fresh(&ss, a, b);
                prop_assert_eq!(ss.implies(a, b), Some(expected));
                let exhaustive = (0..1u32 << LATCHES).all(|bits| {
                    let latches: Vec<bool> = (0..LATCHES).map(|i| bits >> i & 1 == 1).collect();
                    !ss.contains(a, &latches) || ss.contains(b, &latches)
                });
                prop_assert_eq!(expected, exhaustive);
            }
        }
    }

    #[test]
    fn encode_state_lit_constrains_frame_variables() {
        // Design: one latch toggling from 0; constrain frame 0 to the set
        // "latch = 1" and check that together with the reset state the CNF
        // is unsatisfiable.
        let mut design = Aig::new();
        let l = design.add_latch(false);
        let cur = design.latch_lit(l);
        design.set_next(l, !cur);
        design.add_bad(cur);

        let ss = space(1);
        let one = ss.latch(0);

        let mut unroller = Unroller::new(&design);
        unroller.assert_initial(0);
        let set_lit = encode_state_lit(&mut unroller, 0, &ss, one, &[0]);
        unroller.assert_lit(set_lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        assert_eq!(solver.solve(), SolveResult::Unsat);

        // Without the initial-state constraint the set is satisfiable.
        let mut unroller = Unroller::new(&design);
        let set_lit = encode_state_lit(&mut unroller, 0, &ss, one, &[0]);
        unroller.assert_lit(set_lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn latch_map_redirects_dimensions() {
        // A state space over one abstract latch that corresponds to the
        // second latch of the concrete design.
        let mut design = Aig::new();
        let _l0 = design.add_latch(false);
        let l1 = design.add_latch(true);
        let _ = l1;
        let ss = space(1);
        let set = ss.latch(0); // "abstract latch is 1"
        let mut unroller = Unroller::new(&design);
        unroller.assert_initial(0);
        let lit = encode_state_lit(&mut unroller, 0, &ss, set, &[1]);
        unroller.assert_lit(lit);
        let mut solver = Solver::new();
        solver.add_cnf(&unroller.into_cnf());
        // Latch 1 resets to 1, so the constraint is consistent.
        assert_eq!(solver.solve(), SolveResult::Sat);
    }
}
