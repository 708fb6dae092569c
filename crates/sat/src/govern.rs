//! Resource governance and deterministic fault injection for the SAT
//! layer.
//!
//! Two small, shareable handles live here:
//!
//! * [`MemoryBudget`] — an aggregate byte budget shared by every solver
//!   of a run (clones share the same counters, exactly like the
//!   interrupt flag).  Each [`Solver`](crate::Solver) re-estimates its
//!   own footprint at the interrupt-check cadence and folds the delta
//!   into the shared total; once the total exceeds the limit the solver
//!   answers [`SolveResult::Interrupted`](crate::SolveResult) and the
//!   budget records a *hit*, which is how the engine layer tells a
//!   memory stop apart from a timeout even after the tripping solver has
//!   been dropped (dropping releases its registered bytes, but hits are
//!   monotone).
//! * [`FaultPlan`] — a deterministic, fire-exactly-once fault injector
//!   for the chaos test suite: panic, spurious interrupt or simulated
//!   allocation failure at the Nth conflict, Nth clause allocation, Nth
//!   engine phase or Nth fixpoint check.  Firing exactly once (globally,
//!   across every clone) is what keeps faulted runs deterministic: a
//!   worker that dies to an injected panic can be re-run sequentially and
//!   the plan will not re-fire.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An aggregate memory budget shared across solvers; see the module
/// docs.  Clones share the accounting, so one budget handed to every
/// entrant of a portfolio (or every frame solver of a multi-property
/// run) governs their *combined* footprint.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    limit: u64,
    used: Arc<AtomicU64>,
    hits: Arc<AtomicU64>,
}

impl MemoryBudget {
    /// A budget of `limit` bytes across every solver sharing this handle.
    pub fn new(limit: u64) -> MemoryBudget {
        MemoryBudget {
            limit,
            used: Arc::new(AtomicU64::new(0)),
            hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The configured limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Current aggregate estimate across every registered solver.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// Number of times a solver observed the budget exceeded (monotone —
    /// it never decreases, even after the offending solver is dropped).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Acquire)
    }

    /// Replaces a solver's registered contribution (`*registered` bytes)
    /// with `now` bytes in the shared total.
    pub fn update(&self, registered: &mut u64, now: u64) {
        if now >= *registered {
            self.used.fetch_add(now - *registered, Ordering::AcqRel);
        } else {
            self.used.fetch_sub(*registered - now, Ordering::AcqRel);
        }
        *registered = now;
    }

    /// Removes a solver's registered contribution from the shared total
    /// (called when the solver is dropped or the budget uninstalled).
    pub fn release(&self, registered: &mut u64) {
        self.update(registered, 0);
    }

    /// `true` once the aggregate estimate exceeds the limit.
    pub fn exceeded(&self) -> bool {
        self.used() > self.limit
    }

    /// Records that a solver observed the budget exceeded and stopped.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::AcqRel);
    }
}

/// Budgets compare by their configured limit; the live accounting is
/// run state, not configuration.
impl PartialEq for MemoryBudget {
    fn eq(&self, other: &MemoryBudget) -> bool {
        self.limit == other.limit
    }
}
impl Eq for MemoryBudget {}

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic (unwinds into the engine's containment boundary).
    Panic,
    /// A spurious interrupt: the solve answers `Interrupted` with no
    /// budget actually exhausted.
    Interrupt,
    /// A simulated allocation failure (unwinds like a panic, with an
    /// allocation-failure message).
    AllocFail,
}

/// Where an injected fault counts down and fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The Nth conflict of any governed solver.
    Conflict,
    /// The Nth clause allocation of any governed solver.
    Alloc,
    /// The Nth engine phase (a between-bounds stop check).
    Phase,
    /// The Nth fixpoint (implication) check of the interpolation engines'
    /// persistent state-space solver.
    Fixpoint,
}

#[derive(Debug)]
struct FaultInner {
    site: FaultSite,
    kind: FaultKind,
    at: u64,
    counter: AtomicU64,
    fired: AtomicBool,
}

/// A deterministic fault injector; see the module docs.  The default
/// plan is unarmed and free (one `Option` check per tick).  Clones
/// share the countdown and the fired latch, so a plan threaded through
/// `Options` clones fires exactly once per *run*, not once per solver.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Option<Arc<FaultInner>>,
}

/// `splitmix64` — the classic 64-bit mixer, used to derive the fault
/// configuration from a seed deterministically.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The unarmed plan: every tick is a cheap no-op.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms a fault of `kind` at the `at`-th tick of `site` (1-based;
    /// `at = 1` fires on the first tick).
    pub fn inject(site: FaultSite, kind: FaultKind, at: u64) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(FaultInner {
                site,
                kind,
                at: at.max(1),
                counter: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            })),
        }
    }

    /// Derives a fault configuration deterministically from `seed` —
    /// the chaos suite's way of sweeping the fault space.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut state = seed;
        let x = splitmix64(&mut state);
        let site = match x % 4 {
            0 => FaultSite::Conflict,
            1 => FaultSite::Alloc,
            2 => FaultSite::Phase,
            _ => FaultSite::Fixpoint,
        };
        let y = splitmix64(&mut state);
        let kind = match y % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Interrupt,
            _ => FaultKind::AllocFail,
        };
        let at = 1 + splitmix64(&mut state) % 40;
        FaultPlan::inject(site, kind, at)
    }

    /// `true` when a fault is configured (fired or not).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured fault kind, if any.
    pub fn kind(&self) -> Option<FaultKind> {
        self.inner.as_ref().map(|inner| inner.kind)
    }

    /// The configured fault site, if any.
    pub fn site(&self) -> Option<FaultSite> {
        self.inner.as_ref().map(|inner| inner.site)
    }

    /// `true` once the fault has fired (anywhere, on any clone).
    pub fn fired(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.fired.load(Ordering::Acquire))
    }

    /// Counts one tick of `site`; returns the fault to inject when this
    /// tick is the one the plan is armed for.  Fires exactly once: later
    /// ticks (on this or any clone) return `None` forever.
    pub fn tick(&self, site: FaultSite) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        if inner.site != site || inner.fired.load(Ordering::Acquire) {
            return None;
        }
        let count = inner.counter.fetch_add(1, Ordering::AcqRel) + 1;
        if count >= inner.at && !inner.fired.swap(true, Ordering::AcqRel) {
            return Some(inner.kind);
        }
        None
    }
}

/// Plans compare by configuration; the countdown and fired latch are
/// run state.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => a.site == b.site && a.kind == b.kind && a.at == b.at,
            _ => false,
        }
    }
}
impl Eq for FaultPlan {}

/// A solver's registered byte contribution to a shared [`MemoryBudget`].
///
/// Cloning a solver must *not* clone the registration — the clone never
/// added its bytes to the shared total, so its eventual drop must not
/// subtract them either.  The newtype's `Clone` therefore resets to 0;
/// the clone re-registers at its own next check.
#[derive(Debug, Default)]
pub(crate) struct Registered(pub u64);

impl Clone for Registered {
    fn clone(&self) -> Registered {
        Registered(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting_is_shared_and_releasable() {
        let budget = MemoryBudget::new(1000);
        let clone = budget.clone();
        let mut a = 0u64;
        let mut b = 0u64;
        budget.update(&mut a, 600);
        clone.update(&mut b, 300);
        assert_eq!(budget.used(), 900);
        assert!(!budget.exceeded());
        clone.update(&mut b, 500);
        assert_eq!(budget.used(), 1100);
        assert!(budget.exceeded(), "aggregate over the limit");
        budget.release(&mut a);
        assert_eq!(a, 0);
        assert_eq!(clone.used(), 500);
        assert!(!clone.exceeded());
    }

    #[test]
    fn hits_are_monotone_and_shared() {
        let budget = MemoryBudget::new(10);
        let clone = budget.clone();
        assert_eq!(budget.hits(), 0);
        clone.record_hit();
        clone.record_hit();
        assert_eq!(budget.hits(), 2);
        let mut reg = 0;
        budget.update(&mut reg, 100);
        budget.release(&mut reg);
        assert_eq!(budget.hits(), 2, "releasing never erases hits");
    }

    #[test]
    fn fault_plans_fire_exactly_once() {
        let plan = FaultPlan::inject(FaultSite::Conflict, FaultKind::Panic, 3);
        let clone = plan.clone();
        assert!(plan.is_armed() && !plan.fired());
        assert_eq!(plan.tick(FaultSite::Conflict), None);
        assert_eq!(plan.tick(FaultSite::Alloc), None, "wrong site never fires");
        assert_eq!(clone.tick(FaultSite::Conflict), None);
        assert_eq!(
            plan.tick(FaultSite::Conflict),
            Some(FaultKind::Panic),
            "third conflict tick fires"
        );
        assert!(plan.fired() && clone.fired(), "clones share the latch");
        for _ in 0..10 {
            assert_eq!(clone.tick(FaultSite::Conflict), None, "never re-fires");
        }
    }

    #[test]
    fn unarmed_plans_are_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_armed());
        assert!(!plan.fired());
        for site in [
            FaultSite::Conflict,
            FaultSite::Alloc,
            FaultSite::Phase,
            FaultSite::Fixpoint,
        ] {
            assert_eq!(plan.tick(site), None);
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert!(a.is_armed());
            assert_eq!(a, b, "seed {seed} must derive one configuration");
        }
        // The derivation must cover every site and kind across a small
        // seed range (otherwise the chaos sweep would silently skip a
        // whole fault class).
        let sites: std::collections::HashSet<_> = (0..64u64)
            .filter_map(|s| FaultPlan::seeded(s).site())
            .collect();
        let kinds: std::collections::HashSet<_> = (0..64u64)
            .filter_map(|s| FaultPlan::seeded(s).kind())
            .collect();
        assert_eq!(sites.len(), 4, "{sites:?}");
        assert_eq!(kinds.len(), 3, "{kinds:?}");
    }

    #[test]
    fn registered_contributions_do_not_clone() {
        let reg = Registered(512);
        assert_eq!(reg.clone().0, 0, "clones must re-register from zero");
        assert_eq!(reg.0, 512);
    }
}
