//! The verification engines evaluated in the paper, the IC3/PDR
//! competitor every modern checker ships, and the racing portfolio that
//! combines them.
//!
//! Every engine verifies one bad-state property per run through one
//! entry point, [`Engine::run`](crate::Engine::run), reached from the
//! public [`Engine::verify`](crate::Engine::verify) family; the
//! multi-property backends that amortize one run across all properties
//! of a design live in [`crate::multi`].  The three sequence engines of
//! the paper are one loop, [`seq::run`], under three [`seq::SeqConfig`]s.

pub(crate) mod bmc;
pub(crate) mod itp;
pub(crate) mod pdr;
pub(crate) mod pool;
pub(crate) mod portfolio;
pub(crate) mod seq;

use crate::state::StateSpace;
use crate::types::StopReason;
use crate::EngineStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{ArgValue, Telemetry};

/// The per-run progress publisher: periodic `"solver"` counter samples
/// *and* `"progress"` heartbeat instants on one telemetry track.
///
/// Every engine builds one of these per run and installs
/// [`probe`](Self::probe) on its long-lived solvers — that is how
/// restart/decision/propagation progress surfaces in a trace without a
/// single callback from the propagation inner loop.  The engine main loop
/// additionally publishes the bound/frame/level it is working on through
/// [`set_bound`](Self::set_bound); each heartbeat reads the cell at fire
/// time, so even solvers installed once and reused across bounds (PDR's
/// per-frame solvers, the incremental BMC solver) report the *current*
/// position, and a long run is observably alive mid-bound rather than
/// only post-hoc analyzable.
///
/// The sample cadence is `interval` conflicts
/// ([`Options::probe_interval`](crate::Options::probe_interval)); with
/// tracing disabled [`probe`](Self::probe) returns `None` and the solver
/// carries no probe at all — the hot path stays exactly as before.
pub(crate) struct EngineProbe {
    telemetry: Telemetry,
    interval: u64,
    bound: Arc<AtomicU64>,
}

impl EngineProbe {
    /// A publisher emitting on `telemetry`'s track every `interval`
    /// conflicts.
    pub fn new(telemetry: &Telemetry, interval: u64) -> EngineProbe {
        EngineProbe {
            telemetry: telemetry.clone(),
            interval,
            bound: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Publishes the bound/frame/level the engine is currently working
    /// on; the next heartbeat carries it.
    pub fn set_bound(&self, bound: usize) {
        self.bound.store(bound as u64, Ordering::Relaxed);
    }

    /// A [`sat::ProgressProbe`] for [`sat::Solver::set_progress_probe`],
    /// or `None` when tracing is disabled.
    pub fn probe(&self) -> Option<sat::ProgressProbe> {
        if !self.telemetry.is_enabled() {
            return None;
        }
        let telemetry = self.telemetry.clone();
        let bound = Arc::clone(&self.bound);
        Some(sat::ProgressProbe::new(self.interval, move |stats| {
            telemetry.counter("solver", || {
                vec![
                    ("conflicts", ArgValue::U64(stats.conflicts)),
                    ("decisions", ArgValue::U64(stats.decisions)),
                    ("propagations", ArgValue::U64(stats.propagations)),
                    ("restarts", ArgValue::U64(stats.restarts)),
                ]
            });
            telemetry.instant_args("progress", || {
                vec![
                    ("bound", ArgValue::U64(bound.load(Ordering::Relaxed))),
                    ("conflicts", ArgValue::U64(stats.conflicts)),
                ]
            });
        }))
    }
}

/// One fixpoint check `a ⇒ b` on the run's persistent state-space solver
/// ([`StateSpace::implies`]), traced as a `fixpoint` span and counted in
/// [`EngineStats::fixpoint_checks`]/[`EngineStats::fixpoint_time`] — never
/// in the search counters, which stay those of the bounded checks.
/// `None` means the governed solver was interrupted.
pub(crate) fn fixpoint_check(
    space: &mut StateSpace,
    a: aig::Lit,
    b: aig::Lit,
    stats: &mut EngineStats,
    telemetry: &Telemetry,
) -> Option<bool> {
    let _span = telemetry.span("fixpoint");
    let started = std::time::Instant::now();
    let holds = space.implies(a, b);
    stats.fixpoint_checks += 1;
    stats.fixpoint_time += started.elapsed();
    holds
}

/// Cooperative cancellation token shared between an engine run and its
/// supervisor.
///
/// Every engine polls its token at the head of each major-loop iteration
/// and hands the underlying flag to its SAT solvers, so even a long
/// individual query stops within a bounded number of conflicts (see
/// [`sat::Solver::set_interrupt`]).  A cancelled run returns
/// [`Verdict::Inconclusive`](crate::Verdict::Inconclusive) with reason
/// `"cancelled"` — cancellation never fabricates a verdict.
///
/// Clones share the flag: [`Engine::Portfolio`](crate::Engine::Portfolio)
/// hands one token per entrant to its workers and cancels the losers as
/// soon as a conclusive verdict arrives.
///
/// ```
/// use mc::{CancelToken, Engine, Options, Verdict};
///
/// // A one-latch design whose property holds; a pre-cancelled run still
/// // refuses to answer.
/// let mut design = aig::Aig::new();
/// let latch = design.add_latch(false);
/// design.set_next(latch, aig::Lit::FALSE);
/// let bad = design.latch_lit(latch);
/// design.add_bad(bad);
///
/// let cancel = CancelToken::new();
/// cancel.cancel();
/// let result = Engine::Pdr.verify_with_cancel(&design, 0, &Options::default(), &cancel);
/// assert!(matches!(result.verdict, Verdict::Inconclusive { .. }));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh (non-cancelled) token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every engine and solver holding this token (or a
    /// clone) stops at its next cancellation point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Returns `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The shared flag in the form the SAT layer consumes
    /// ([`sat::Solver::set_interrupt`]).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// The stop decision shared by the engine main loops: cancellation takes
/// precedence over the wall-clock budget, and the returned reason is the
/// `Verdict::Inconclusive` reason.
pub(crate) fn stop_reason(
    cancel: &CancelToken,
    start: std::time::Instant,
    timeout: std::time::Duration,
) -> Option<StopReason> {
    if cancel.is_cancelled() {
        Some(StopReason::Cancelled)
    } else if start.elapsed() > timeout {
        Some(StopReason::Timeout)
    } else {
        None
    }
}

/// How often the [`RunBudget`] watchdog re-examines the cancellation token
/// and the deadline.
const BUDGET_POLL: std::time::Duration = std::time::Duration::from_millis(5);

/// The per-run stop machinery of the bound-loop engines: a cancellation
/// token *and* a wall-clock deadline, both surfaced to the SAT layer
/// through one shared interrupt flag.
///
/// Checking `options.timeout` only between bounds lets a single long SAT
/// call overshoot the budget arbitrarily; a `RunBudget` instead arms a
/// watchdog thread that raises the interrupt flag as soon as either the
/// token is cancelled or the deadline passes, so every solve stops within
/// a bounded number of conflicts of the budget running out — exactly what
/// the portfolio's token already did for cancellation, extended to the
/// standalone timeout path.
///
/// The watchdog exits when the budget is dropped (the run finished) and
/// is joined there, so no thread outlives its engine run.
///
/// Beyond cancellation and the deadline, the budget carries the run's
/// resource-governance handles: the shared memory budget
/// ([`Options::memory_limit`](crate::Options::memory_limit)), whose hit
/// counter is snapshotted at arm time so a memory stop is attributable
/// even after the tripping solver was dropped, and the fault-injection
/// plan, whose `Phase` site ticks at every between-bounds stop check.
pub(crate) struct RunBudget {
    cancel: CancelToken,
    start: std::time::Instant,
    timeout: std::time::Duration,
    flag: Arc<AtomicBool>,
    memory: Option<sat::MemoryBudget>,
    /// Memory-budget hits at arm time; more hits than this means *this*
    /// run (or a concurrent sibling sharing the budget) stopped on memory.
    mem_hits_at_arm: u64,
    faults: sat::FaultPlan,
    /// Whether the fault plan had already fired at arm time; only a fault
    /// fired since then stops this run.
    fault_fired_at_arm: bool,
    stop: Option<std::sync::mpsc::Sender<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl RunBudget {
    /// Arms a watchdog for a run that started at `start`, governed by
    /// `options` (wall-clock budget, memory budget, fault plan) and
    /// observing `cancel`.
    pub fn arm(
        cancel: &CancelToken,
        start: std::time::Instant,
        options: &crate::Options,
    ) -> RunBudget {
        let timeout = options.timeout;
        let flag = Arc::new(AtomicBool::new(cancel.is_cancelled()));
        let deadline = start.checked_add(timeout);
        let (stop, wake) = std::sync::mpsc::channel::<()>();
        let token = cancel.clone();
        let shared = Arc::clone(&flag);
        let watchdog = std::thread::spawn(move || loop {
            let now = std::time::Instant::now();
            if token.is_cancelled() || deadline.is_some_and(|d| now >= d) {
                shared.store(true, Ordering::Release);
                return;
            }
            let wait = deadline
                .map(|d| d.saturating_duration_since(now).min(BUDGET_POLL))
                .unwrap_or(BUDGET_POLL)
                .max(std::time::Duration::from_millis(1));
            match wake.recv_timeout(wait) {
                // The run finished (sender dropped or explicit stop).
                Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            }
        });
        RunBudget {
            cancel: cancel.clone(),
            start,
            timeout,
            flag,
            memory: options.memory_limit.clone(),
            mem_hits_at_arm: options
                .memory_limit
                .as_ref()
                .map_or(0, sat::MemoryBudget::hits),
            faults: options.faults.clone(),
            fault_fired_at_arm: options.faults.fired(),
            stop: Some(stop),
            watchdog: Some(watchdog),
        }
    }

    /// The shared interrupt flag, in the form the SAT layer consumes.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// Installs the run's full governance on a solver: the interrupt
    /// flag, the shared memory budget and the fault-injection plan.
    fn govern(&self, solver: &mut sat::Solver) {
        solver.set_interrupt(Some(self.flag()));
        solver.set_memory_budget(self.memory.clone());
        solver.set_faults(self.faults.clone());
    }

    /// [`govern`](Self::govern) for an [`sat::IncrementalSolver`] (the
    /// settings additionally survive its recycling rebuilds).
    fn govern_incremental(&self, solver: &mut sat::IncrementalSolver) {
        solver.set_interrupt(Some(self.flag()));
        solver.set_memory_budget(self.memory.clone());
        solver.set_faults(self.faults.clone());
    }

    /// A fresh [`sat::Solver`] under the run's full governance.  The
    /// engines build their solvers only through these constructors
    /// (`clippy.toml` forbids the bare ones), so timeout, cancellation,
    /// the memory budget and fault injection reach every solver of a run.
    #[allow(clippy::disallowed_methods)]
    pub fn solver(&self) -> sat::Solver {
        let mut solver = sat::Solver::new();
        self.govern(&mut solver);
        solver
    }

    /// A fresh [`sat::IncrementalSolver`] under the run's full governance.
    #[allow(clippy::disallowed_methods)]
    pub fn incremental_solver(&self) -> sat::IncrementalSolver {
        let mut solver = sat::IncrementalSolver::new();
        self.govern_incremental(&mut solver);
        solver
    }

    /// An [`sat::IncrementalSolver`] preloaded with `base` (see
    /// [`sat::IncrementalSolver::with_base`]) under the run's full
    /// governance.  The base clauses are loaded before the fault plan is
    /// installed, so loading them never ticks a fault site.
    #[allow(clippy::disallowed_methods)]
    pub fn incremental_solver_with_base(&self, base: &cnf::Cnf) -> sat::IncrementalSolver {
        let mut solver = sat::IncrementalSolver::with_base(base);
        self.govern_incremental(&mut solver);
        solver
    }

    /// `true` when the shared memory budget recorded a hit since this
    /// budget was armed.
    fn memory_hit(&self) -> bool {
        self.memory
            .as_ref()
            .is_some_and(|m| m.hits() > self.mem_hits_at_arm)
    }

    /// `true` when an injected spurious interrupt fired since this budget
    /// was armed.  Some solver of the run (or of a concurrent sibling
    /// sharing the plan) then answered `Interrupted` with no budget
    /// exhausted, so the run must stop rather than read on.
    fn injected_interrupt(&self) -> bool {
        !self.fault_fired_at_arm
            && self.faults.fired()
            && self.faults.kind() == Some(sat::FaultKind::Interrupt)
    }

    /// The between-bounds stop decision (see [`stop_reason`]), extended
    /// with the memory budget and fired spurious-interrupt faults — and
    /// the `Phase` fault-injection site: an
    /// injected phase fault panics here (to be contained at the dispatch
    /// boundary) or stops the run with a spurious-interrupt reason.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if let Some(kind) = self.faults.tick(sat::FaultSite::Phase) {
            match kind {
                sat::FaultKind::Panic => panic!("injected fault: panic at engine phase"),
                sat::FaultKind::AllocFail => {
                    panic!("injected fault: allocation failure at engine phase")
                }
                sat::FaultKind::Interrupt => {
                    // Stop the solvers too: the run is over.
                    self.flag.store(true, Ordering::Release);
                    return Some(StopReason::other("fault:interrupt"));
                }
            }
        }
        if self.memory_hit() && !self.cancel.is_cancelled() {
            return Some(StopReason::MemLimit);
        }
        if self.injected_interrupt() && !self.cancel.is_cancelled() {
            return Some(StopReason::other("fault:interrupt"));
        }
        stop_reason(&self.cancel, self.start, self.timeout)
    }

    /// The reason behind a [`sat::SolveResult::Interrupted`] answer:
    /// cancellation takes precedence, then a memory-budget hit, then an
    /// injected spurious interrupt; anything else was the deadline.
    pub fn interrupt_reason(&self) -> StopReason {
        if self.cancel.is_cancelled() {
            StopReason::Cancelled
        } else if self.memory_hit() {
            StopReason::MemLimit
        } else if self.injected_interrupt() {
            StopReason::other("fault:interrupt")
        } else {
            StopReason::Timeout
        }
    }
}

impl Drop for RunBudget {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

// The checks every sequence engine must pass live once in `seq::tests`;
// these modules run them under each engine's own test names.
#[cfg(test)]
mod itpseq {
    mod tests {
        use crate::engines::seq::tests as checks;
        use crate::Engine::ItpSeq;

        #[test]
        fn proves_unreachable_counter_value() {
            checks::proves_unreachable_counter_values(ItpSeq);
        }

        #[test]
        fn falsifies_reachable_counter_value_at_exact_depth() {
            checks::falsifies_at_the_exact_depth(ItpSeq);
        }

        #[test]
        fn verdicts_match_exact_bdd_reachability() {
            checks::matches_exact_bdd_reachability(ItpSeq);
        }
    }
}

#[cfg(test)]
mod sitpseq {
    mod tests {
        use crate::engines::seq::tests as checks;
        use crate::Engine::SerialItpSeq;

        #[test]
        fn proves_unreachable_counter_value() {
            checks::proves_unreachable_counter_values(SerialItpSeq);
        }

        #[test]
        fn falsifies_reachable_counter_value() {
            checks::falsifies_at_the_exact_depth(SerialItpSeq);
        }

        #[test]
        fn verdicts_match_exact_bdd_reachability() {
            checks::matches_exact_bdd_reachability(SerialItpSeq);
        }
    }
}

#[cfg(test)]
mod itpseq_cba {
    mod tests {
        use crate::engines::seq::tests as checks;
        use crate::Engine::ItpSeqCba;

        #[test]
        fn proves_unreachable_counter_value() {
            checks::proves_unreachable_counter_values(ItpSeqCba);
        }

        #[test]
        fn falsifies_reachable_counter_value() {
            checks::falsifies_at_the_exact_depth(ItpSeqCba);
        }

        #[test]
        fn verdicts_match_exact_bdd_reachability() {
            checks::matches_exact_bdd_reachability(ItpSeqCba);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_start_clear_and_latch_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn flag_view_matches_the_token() {
        let token = CancelToken::new();
        let flag = token.flag();
        token.cancel();
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn run_budget_starts_raised_for_a_cancelled_token() {
        let token = CancelToken::new();
        token.cancel();
        let options = crate::Options::default().with_timeout(std::time::Duration::from_secs(600));
        let budget = RunBudget::arm(&token, std::time::Instant::now(), &options);
        assert!(budget.flag().load(Ordering::Acquire));
        assert_eq!(budget.interrupt_reason(), "cancelled");
        assert_eq!(budget.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn run_budget_raises_the_flag_at_the_deadline() {
        let options = crate::Options::default().with_timeout(std::time::Duration::from_millis(1));
        let budget = RunBudget::arm(&CancelToken::new(), std::time::Instant::now(), &options);
        let flag = budget.flag();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !flag.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "watchdog must raise the flag promptly"
            );
            std::thread::yield_now();
        }
        assert_eq!(budget.interrupt_reason(), "timeout");
    }

    #[test]
    fn run_budget_watchdog_exits_on_drop() {
        // Arming and dropping immediately must not dead-lock the join.
        let options = crate::Options::default().with_timeout(std::time::Duration::from_secs(600));
        for _ in 0..8 {
            let budget = RunBudget::arm(&CancelToken::new(), std::time::Instant::now(), &options);
            drop(budget);
        }
    }

    #[test]
    fn run_budget_attributes_memory_hits() {
        let options = crate::Options::default()
            .with_timeout(std::time::Duration::from_secs(600))
            .with_memory_limit(1 << 20);
        let budget = RunBudget::arm(&CancelToken::new(), std::time::Instant::now(), &options);
        assert_eq!(budget.stop_reason(), None);
        // A hit on the shared budget — e.g. from a solver that has since
        // been dropped — re-attributes the stop to the memory limit.
        options
            .memory_limit
            .as_ref()
            .expect("limit set")
            .record_hit();
        assert_eq!(budget.interrupt_reason(), "memlimit");
        assert_eq!(budget.stop_reason(), Some(StopReason::MemLimit));
        // Cancellation still takes precedence.
        let token = CancelToken::new();
        let budget = RunBudget::arm(&token, std::time::Instant::now(), &options);
        token.cancel();
        assert_eq!(budget.interrupt_reason(), "cancelled");
    }

    #[test]
    fn run_budget_hits_before_arming_do_not_count() {
        let options = crate::Options::default()
            .with_timeout(std::time::Duration::from_secs(600))
            .with_memory_limit(1 << 20);
        options
            .memory_limit
            .as_ref()
            .expect("limit set")
            .record_hit();
        // The hit predates this run: a fresh budget must not blame memory.
        let budget = RunBudget::arm(&CancelToken::new(), std::time::Instant::now(), &options);
        assert_eq!(budget.stop_reason(), None);
        assert_eq!(budget.interrupt_reason(), "timeout");
    }

    #[test]
    fn run_budget_phase_fault_stops_the_run_once() {
        let options = crate::Options::default()
            .with_timeout(std::time::Duration::from_secs(600))
            .with_faults(sat::FaultPlan::inject(
                sat::FaultSite::Phase,
                sat::FaultKind::Interrupt,
                2,
            ));
        let budget = RunBudget::arm(&CancelToken::new(), std::time::Instant::now(), &options);
        assert_eq!(budget.stop_reason(), None, "first phase tick does not fire");
        let reason = budget.stop_reason().expect("second phase tick fires");
        assert_eq!(reason, "fault:interrupt");
        assert!(
            budget.flag().load(Ordering::Acquire),
            "the injected stop also interrupts the solvers"
        );
    }
}
