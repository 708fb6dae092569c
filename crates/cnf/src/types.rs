//! Propositional variables, literals, clauses and partitioned CNF formulas.

use std::fmt;
use std::ops::Not;

/// A propositional variable, indexed from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its index.
    #[inline]
    pub fn new(index: u32) -> Var {
        Var(index)
    }

    /// Returns the variable index.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A propositional literal: a variable with a sign.
///
/// The encoding packs `(var << 1) | negated` into a `u32`, so literals can
/// directly index watch lists and assignment arrays in the SAT solver.
///
/// ```
/// use cnf::{Lit, Var};
/// let v = Var::new(3);
/// let p = Lit::positive(v);
/// assert_eq!(p.var(), v);
/// assert!(!(p.is_negative()));
/// assert!((!p).is_negative());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    #[inline]
    pub fn positive(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub fn negative(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a sign (`true` = negated).
    #[inline]
    pub fn new(var: Var, negative: bool) -> Lit {
        Lit((var.0 << 1) | negative as u32)
    }

    /// Creates a literal from its packed code.
    #[inline]
    pub fn from_code(code: u32) -> Lit {
        Lit(code)
    }

    /// Returns the packed code of the literal.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` when the literal is negated.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` when the literal is not negated.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Creates the literal from a DIMACS-style signed integer.
    ///
    /// # Panics
    ///
    /// Panics when `value == 0`.
    pub fn from_dimacs(value: i64) -> Lit {
        assert!(value != 0, "dimacs literal cannot be zero");
        let var = Var((value.unsigned_abs() - 1) as u32);
        Lit::new(var, value < 0)
    }

    /// Returns the DIMACS-style signed integer of the literal.
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().index() + 1) as i64;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.var().index())
        } else {
            write!(f, "x{}", self.var().index())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A clause together with the interpolation partition it belongs to.
///
/// Partition indices follow the paper's `Γ_{1..n} = {A_1, …, A_n}` naming:
/// they are 1-based, and partition `0` is reserved for clauses that do not
/// participate in interpolation (for instance activation clauses used only
/// under assumptions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// The literals of the clause.
    pub lits: Vec<Lit>,
    /// 1-based partition index (`A_partition`); 0 means "no partition".
    pub partition: u32,
}

impl Clause {
    /// Creates a clause in the given partition.
    pub fn new(lits: Vec<Lit>, partition: u32) -> Clause {
        Clause { lits, partition }
    }

    /// Returns `true` when the clause contains no literals.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }
}

/// A complete CNF formula: a variable count plus partition-labelled clauses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables; all clause literals reference variables
    /// `0..num_vars`.
    pub num_vars: u32,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Returns the largest partition index used by any clause.
    pub fn num_partitions(&self) -> u32 {
        self.clauses.iter().map(|c| c.partition).max().unwrap_or(0)
    }

    /// Evaluates the formula under a total assignment (`assignment[v]` is the
    /// value of variable `v`).  Used by tests and by the proof checker.
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.lits
                .iter()
                .any(|l| assignment[l.var().index() as usize] != l.is_negative())
        })
    }
}

/// Incrementally builds a [`Cnf`], allocating fresh variables on demand and
/// tagging every emitted clause with the *current partition*.
#[derive(Clone, Debug, Default)]
pub struct CnfBuilder {
    next_var: u32,
    clauses: Vec<Clause>,
    partition: u32,
}

impl CnfBuilder {
    /// Creates an empty builder (current partition = 0).
    pub fn new() -> CnfBuilder {
        CnfBuilder::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::positive(self.new_var())
    }

    /// Returns the number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.next_var
    }

    /// Returns the number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Sets the partition that subsequently added clauses will belong to.
    pub fn set_partition(&mut self, partition: u32) {
        self.partition = partition;
    }

    /// Returns the current partition.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Adds a clause in the current partition.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let lits: Vec<Lit> = lits.into_iter().collect();
        self.clauses.push(Clause::new(lits, self.partition));
    }

    /// Adds a unit clause in the current partition.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Consumes the builder and returns the finished formula.
    pub fn into_cnf(self) -> Cnf {
        Cnf {
            num_vars: self.next_var,
            clauses: self.clauses,
        }
    }

    /// Returns a view of the clauses added so far.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Removes and yields the clauses added so far, keeping the variable
    /// counter, so a persistent builder can stream its clauses into a
    /// solver without holding a second copy of them.
    pub fn drain_clauses(&mut self) -> std::vec::Drain<'_, Clause> {
        self.clauses.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrip() {
        let v = Var::new(11);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(n.is_negative());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
    }

    #[test]
    fn dimacs_conversion() {
        assert_eq!(Lit::from_dimacs(5).to_dimacs(), 5);
        assert_eq!(Lit::from_dimacs(-7).to_dimacs(), -7);
        assert_eq!(Lit::from_dimacs(1).var(), Var::new(0));
        assert!(Lit::from_dimacs(-1).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn dimacs_zero_is_rejected() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn builder_allocates_sequential_vars() {
        let mut b = CnfBuilder::new();
        assert_eq!(b.new_var().index(), 0);
        assert_eq!(b.new_var().index(), 1);
        assert_eq!(b.num_vars(), 2);
    }

    #[test]
    fn builder_tags_clauses_with_partition() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        b.set_partition(1);
        b.add_unit(x);
        b.set_partition(3);
        b.add_clause([!x]);
        let cnf = b.into_cnf();
        assert_eq!(cnf.clauses[0].partition, 1);
        assert_eq!(cnf.clauses[1].partition, 3);
        assert_eq!(cnf.num_partitions(), 3);
    }

    #[test]
    fn cnf_evaluation() {
        let mut b = CnfBuilder::new();
        let x = b.new_lit();
        let y = b.new_lit();
        b.add_clause([x, y]);
        b.add_clause([!x, y]);
        let cnf = b.into_cnf();
        assert!(cnf.evaluate(&[true, true]));
        assert!(cnf.evaluate(&[false, true]));
        assert!(!cnf.evaluate(&[true, false]));
    }

    #[test]
    fn clause_len_and_empty() {
        let c = Clause::new(vec![], 1);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        let c = Clause::new(vec![Lit::from_dimacs(1)], 2);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn display_formats() {
        let v = Var::new(2);
        assert_eq!(format!("{}", v), "x2");
        assert_eq!(format!("{}", Lit::positive(v)), "x2");
        assert_eq!(format!("{}", Lit::negative(v)), "¬x2");
    }
}
