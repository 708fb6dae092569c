//! Common result and configuration types for the verification engines.

use crate::certificate::{Certificate, InvariantCert};
use crate::engines::CancelToken;
use cnf::BmcCheck;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{ArgValue, Telemetry};

/// Why an engine stopped without an answer — the machine-readable
/// vocabulary behind every [`Verdict::Inconclusive`].
///
/// The enum replaces the earlier ad-hoc reason strings; its
/// [`Display`](fmt::Display) form reproduces them exactly (`"timeout"`,
/// `"cancelled"`, `"bound exhausted"`, …), and `reason == "timeout"`
/// comparisons against string literals still work through the
/// [`PartialEq<str>`] impl, so downstream consumers (reports, JSON,
/// tests) see the same surface as before.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock budget ([`Options::timeout`]) ran out.
    Timeout,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The memory budget ([`Options::memory_limit`]) was exhausted.
    MemLimit,
    /// The bound budget ([`Options::max_bound`]) was exhausted.
    BoundExhausted,
    /// A multi-property backend retired the property because a
    /// concurrent backend decided it first.
    Retired,
    /// A panic was contained at an engine boundary; the payload is the
    /// panic message.
    Panic(String),
    /// Any other engine-specific reason.
    Other(String),
}

impl StopReason {
    /// Wraps an arbitrary reason string.
    pub fn other(reason: impl Into<String>) -> StopReason {
        StopReason::Other(reason.into())
    }

    /// Wraps a contained panic's message.
    pub fn panic(message: impl Into<String>) -> StopReason {
        StopReason::Panic(message.into())
    }

    /// `true` for the reasons a budget artifact may legitimately produce
    /// (the run was stopped from outside, not by the engine's own
    /// limits).
    pub fn is_budget_stop(&self) -> bool {
        matches!(
            self,
            StopReason::Timeout | StopReason::Cancelled | StopReason::MemLimit
        )
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Timeout => f.write_str("timeout"),
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::MemLimit => f.write_str("memlimit"),
            StopReason::BoundExhausted => f.write_str("bound exhausted"),
            StopReason::Retired => f.write_str("retired"),
            StopReason::Panic(msg) => write!(f, "panic:{msg}"),
            StopReason::Other(reason) => f.write_str(reason),
        }
    }
}

/// Compares against the rendered reason string (`reason == "timeout"`).
impl PartialEq<str> for StopReason {
    fn eq(&self, other: &str) -> bool {
        match self {
            StopReason::Timeout => other == "timeout",
            StopReason::Cancelled => other == "cancelled",
            StopReason::MemLimit => other == "memlimit",
            StopReason::BoundExhausted => other == "bound exhausted",
            StopReason::Retired => other == "retired",
            StopReason::Panic(msg) => other.strip_prefix("panic:").is_some_and(|rest| rest == msg),
            StopReason::Other(reason) => other == reason,
        }
    }
}

impl PartialEq<&str> for StopReason {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

/// Outcome of a verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for every reachable state.
    Proved {
        /// The BMC bound at which the fixed point was found (`k_fp`).
        k_fp: usize,
        /// The forward depth (inner iteration / cut index) at the fixed
        /// point (`j_fp`).
        j_fp: usize,
    },
    /// The property is violated by a concrete trace.
    Falsified {
        /// Length of the counterexample (number of transitions).
        depth: usize,
    },
    /// The engine gave up (bound, time or memory budget exhausted, or a
    /// contained fault).
    Inconclusive {
        /// Why the engine stopped.
        reason: StopReason,
        /// Bound reached when the engine stopped (the paper's bracketed
        /// `(k_fp)` values on overflow rows).
        bound_reached: usize,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved { .. })
    }

    /// Returns `true` for [`Verdict::Falsified`].
    pub fn is_falsified(&self) -> bool {
        matches!(self, Verdict::Falsified { .. })
    }

    /// Returns `true` when the run produced a definite answer.
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, Verdict::Inconclusive { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proved { k_fp, j_fp } => write!(f, "proved (k_fp={k_fp}, j_fp={j_fp})"),
            Verdict::Falsified { depth } => write!(f, "falsified at depth {depth}"),
            Verdict::Inconclusive {
                reason,
                bound_reached,
            } => write!(f, "inconclusive after bound {bound_reached}: {reason}"),
        }
    }
}

/// Measured statistics of a verification run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Wall-clock time spent.
    pub time: Duration,
    /// Number of SAT queries issued.
    pub sat_calls: u64,
    /// Total conflicts across all SAT queries.
    pub conflicts: u64,
    /// Total branching decisions across all SAT queries.
    pub decisions: u64,
    /// Total literals propagated across all SAT queries.
    pub propagations: u64,
    /// Total solver restarts across all SAT queries.
    pub restarts: u64,
    /// Total clauses handed to SAT solvers (encoding volume).  With the
    /// incremental unrolling cache this grows linearly in the bound for
    /// BMC, where the scratch path grew quadratically.
    pub clauses_encoded: u64,
    /// Time spent building or extending CNF encodings (Tseitin encoding,
    /// frame extension and instance snapshots), as opposed to solving.
    pub encode_time: Duration,
    /// Learned clauses the SAT cores deleted — by the periodic LBD-driven
    /// database reduction and by the root-satisfied sweeps that follow
    /// incremental clause retirement.
    pub learned_deleted: u64,
    /// Literals removed from learned clauses by the SAT cores' recursive
    /// minimization before backjumping.
    pub minimized_literals: u64,
    /// Learned-clause database reduction passes across all SAT queries.
    pub db_reductions: u64,
    /// Number of interpolants extracted.
    pub interpolants: u64,
    /// Fixpoint (implication) checks of the interpolation engines, such as
    /// Fig. 2's column checks `ℐ_j ⇒ R_{j-1}`.  Their solver's search is
    /// not part of `sat_calls`, `conflicts` or the other search counters.
    pub fixpoint_checks: u64,
    /// Time spent in those fixpoint checks, encoding included.
    pub fixpoint_time: Duration,
    /// Number of abstraction refinements (CBA engine only).
    pub refinements: u64,
    /// Number of latches visible in the final abstraction (CBA engine only;
    /// equals the total latch count for the other engines).
    pub visible_latches: usize,
    /// Name of the entrant whose verdict a portfolio run adopted
    /// ([`Engine::Portfolio`] only; `None` for direct engine runs).
    pub winner: Option<&'static str>,
    /// Time spent in the preprocessing pass pipeline before the solver
    /// saw the design (zero when preprocessing is off).
    pub preprocess_time: Duration,
    /// AND gates the preprocessing pipeline removed from the design.
    pub ands_removed: u64,
    /// Latches the preprocessing pipeline removed (stuck-at sweeps plus
    /// cone-of-influence reduction).
    pub latches_removed: u64,
    /// Primary inputs the preprocessing pipeline removed.
    pub inputs_removed: u64,
    /// Invariant-certificate clauses dropped by the subsumption
    /// compression pass before emission
    /// ([`InvariantCert::compress`](crate::InvariantCert::compress)).
    pub cert_clauses_subsumed: u64,
    /// Panics contained at engine dispatch boundaries (each one turned
    /// into a [`Verdict::Inconclusive`] with a `panic:<msg>` reason).
    pub panics_contained: u64,
    /// Times the shared memory budget ([`Options::memory_limit`])
    /// stopped a SAT call.
    pub memlimit_hits: u64,
    /// Faults fired by an injection plan ([`Options::faults`]) during
    /// this run (0 in production).
    pub faults_injected: u64,
    /// Parallel-worker slices re-run sequentially after a contained
    /// worker fault (the degraded-but-deterministic fallback).
    pub pool_seq_reruns: u64,
}

impl EngineStats {
    /// Folds a SAT-solver statistics delta (`after - before` snapshots of
    /// one query, or the whole stats of a throwaway solver) into the
    /// engine-level counters.
    pub fn add_solver_delta(&mut self, delta: sat::SolverStats) {
        self.conflicts += delta.conflicts;
        self.decisions += delta.decisions;
        self.propagations += delta.propagations;
        self.restarts += delta.restarts;
        self.learned_deleted += delta.learned_deleted;
        self.minimized_literals += delta.minimized_literals;
        self.db_reductions += delta.db_reductions;
    }

    /// Folds another run's counters into this one (multi-property runs
    /// aggregate the statistics of every backend and property group).
    /// Work counters add up; `time` is *not* touched — it stays the
    /// caller's wall clock, which concurrent backends overlap.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.sat_calls += other.sat_calls;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.clauses_encoded += other.clauses_encoded;
        self.encode_time += other.encode_time;
        self.learned_deleted += other.learned_deleted;
        self.minimized_literals += other.minimized_literals;
        self.db_reductions += other.db_reductions;
        self.interpolants += other.interpolants;
        self.fixpoint_checks += other.fixpoint_checks;
        self.fixpoint_time += other.fixpoint_time;
        self.refinements += other.refinements;
        self.visible_latches = self.visible_latches.max(other.visible_latches);
        self.preprocess_time += other.preprocess_time;
        self.ands_removed += other.ands_removed;
        self.latches_removed += other.latches_removed;
        self.inputs_removed += other.inputs_removed;
        self.cert_clauses_subsumed += other.cert_clauses_subsumed;
        self.panics_contained += other.panics_contained;
        self.memlimit_hits += other.memlimit_hits;
        self.faults_injected += other.faults_injected;
        self.pool_seq_reruns += other.pool_seq_reruns;
    }
}

/// One line summarizing the run: wall/encode time, query volume and the
/// engine-specific counters that are actually in play (interpolation and
/// refinement counts only when nonzero, the portfolio winner only when
/// tagged).
impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ms ({:.1} ms encoding), {} SAT calls, {} conflicts, \
             {} decisions, {} propagations, {} restarts",
            self.time.as_secs_f64() * 1e3,
            self.encode_time.as_secs_f64() * 1e3,
            self.sat_calls,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts
        )?;
        if self.ands_removed > 0 || self.latches_removed > 0 || self.inputs_removed > 0 {
            write!(
                f,
                ", preprocessed -{} ands -{} latches -{} inputs in {:.1} ms",
                self.ands_removed,
                self.latches_removed,
                self.inputs_removed,
                self.preprocess_time.as_secs_f64() * 1e3
            )?;
        }
        if self.cert_clauses_subsumed > 0 {
            write!(
                f,
                ", {} certificate clauses subsumed",
                self.cert_clauses_subsumed
            )?;
        }
        if self.interpolants > 0 {
            write!(f, ", {} interpolants", self.interpolants)?;
        }
        if self.fixpoint_checks > 0 {
            write!(
                f,
                ", {} fixpoint checks in {:.1} ms",
                self.fixpoint_checks,
                self.fixpoint_time.as_secs_f64() * 1e3
            )?;
        }
        if self.refinements > 0 {
            write!(f, ", {} refinements", self.refinements)?;
        }
        if self.panics_contained > 0 {
            write!(f, ", {} panics contained", self.panics_contained)?;
        }
        if self.memlimit_hits > 0 {
            write!(f, ", {} memory-limit hits", self.memlimit_hits)?;
        }
        if self.faults_injected > 0 {
            write!(f, ", {} faults injected", self.faults_injected)?;
        }
        if self.pool_seq_reruns > 0 {
            write!(f, ", {} worker slices re-run", self.pool_seq_reruns)?;
        }
        if let Some(winner) = self.winner {
            write!(f, ", won by {winner}")?;
        }
        Ok(())
    }
}

/// The verdict plus the statistics of one engine run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineResult {
    /// The verification outcome.
    pub verdict: Verdict,
    /// Aggregate run statistics.
    pub stats: EngineStats,
    /// Evidence backing a conclusive verdict (an inductive invariant for
    /// `Proved`, a replayable input trace for `Falsified`), when
    /// [`Options::certificates`] is on and the engine produced any.
    pub certificate: Option<Certificate>,
}

/// Per-property outcome of a multi-property run ([`crate::multi`]).
///
/// The variants mirror [`Verdict`]; `Falsified` additionally carries the
/// counterexample's input trace when the deciding backend produced one
/// (multi-BMC reads it off the satisfying assignment; multi-PDR reports
/// the depth only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropertyStatus {
    /// The property holds for every reachable state.
    Proved {
        /// Level at which the deciding engine converged.
        k_fp: usize,
        /// Frame/cut index of the fixed point.
        j_fp: usize,
        /// The inductive invariant witnessing the proof, when the
        /// deciding backend emitted one.  Shared: a multi-PDR run's
        /// converged frame certifies every surviving property at once.
        cert: Option<Arc<InvariantCert>>,
    },
    /// The property is violated.
    Falsified {
        /// Length of the counterexample (number of transitions).
        depth: usize,
        /// The violating input sequence, one vector of primary-input
        /// values per cycle (`depth + 1` cycles), when available.
        /// Replaying it through [`aig::simulate()`] exhibits the bad state
        /// at cycle `depth`.
        cex: Option<Vec<Vec<bool>>>,
    },
    /// The run stopped without an answer for this property.
    Inconclusive {
        /// Why the engine stopped.
        reason: StopReason,
        /// Bound reached when the engine stopped.
        bound_reached: usize,
    },
}

impl PropertyStatus {
    /// Builds a status from a single-property [`Verdict`] (no evidence).
    pub fn from_verdict(verdict: Verdict) -> PropertyStatus {
        match verdict {
            Verdict::Proved { k_fp, j_fp } => PropertyStatus::Proved {
                k_fp,
                j_fp,
                cert: None,
            },
            Verdict::Falsified { depth } => PropertyStatus::Falsified { depth, cex: None },
            Verdict::Inconclusive {
                reason,
                bound_reached,
            } => PropertyStatus::Inconclusive {
                reason,
                bound_reached,
            },
        }
    }

    /// Builds a status from a full [`EngineResult`], preserving the
    /// certificate (invariant → [`PropertyStatus::Proved`]'s `cert`,
    /// trace → [`PropertyStatus::Falsified`]'s `cex`).
    pub fn from_result(result: &EngineResult) -> PropertyStatus {
        match (&result.verdict, &result.certificate) {
            (Verdict::Proved { k_fp, j_fp }, Some(Certificate::Invariant(inv))) => {
                PropertyStatus::Proved {
                    k_fp: *k_fp,
                    j_fp: *j_fp,
                    cert: Some(Arc::new(inv.clone())),
                }
            }
            (Verdict::Falsified { depth }, Some(Certificate::Trace(inputs))) => {
                PropertyStatus::Falsified {
                    depth: *depth,
                    cex: Some(inputs.clone()),
                }
            }
            _ => PropertyStatus::from_verdict(result.verdict.clone()),
        }
    }

    /// The status as a plain [`Verdict`] (dropping any counterexample).
    pub fn verdict(&self) -> Verdict {
        match self {
            PropertyStatus::Proved { k_fp, j_fp, .. } => Verdict::Proved {
                k_fp: *k_fp,
                j_fp: *j_fp,
            },
            PropertyStatus::Falsified { depth, .. } => Verdict::Falsified { depth: *depth },
            PropertyStatus::Inconclusive {
                reason,
                bound_reached,
            } => Verdict::Inconclusive {
                reason: reason.clone(),
                bound_reached: *bound_reached,
            },
        }
    }

    /// Returns `true` for [`PropertyStatus::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, PropertyStatus::Proved { .. })
    }

    /// Returns `true` for [`PropertyStatus::Falsified`].
    pub fn is_falsified(&self) -> bool {
        matches!(self, PropertyStatus::Falsified { .. })
    }

    /// Returns `true` when the property got a definite answer.
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, PropertyStatus::Inconclusive { .. })
    }

    /// The counterexample depth of a falsified property.
    pub fn depth(&self) -> Option<usize> {
        match self {
            PropertyStatus::Falsified { depth, .. } => Some(*depth),
            _ => None,
        }
    }

    /// The comparison key of the multi-property determinism contract:
    /// verdict *kind* plus the counterexample depth.  Proof bookkeeping
    /// (`k_fp`/`j_fp`), inconclusive reasons and counterexample traces may
    /// legitimately vary between backends, schedules and thread counts;
    /// this key never does.
    pub fn kind_and_depth(&self) -> (&'static str, Option<usize>) {
        match self {
            PropertyStatus::Proved { .. } => ("proved", None),
            PropertyStatus::Falsified { depth, .. } => ("falsified", Some(*depth)),
            PropertyStatus::Inconclusive { .. } => ("inconclusive", None),
        }
    }

    /// Returns `true` when the status agrees with a single-property
    /// verdict under the determinism contract (same kind; equal depths
    /// when falsified).
    pub fn agrees_with(&self, verdict: &Verdict) -> bool {
        match (self, verdict) {
            (PropertyStatus::Proved { .. }, Verdict::Proved { .. }) => true,
            (PropertyStatus::Falsified { depth, .. }, Verdict::Falsified { depth: expected }) => {
                depth == expected
            }
            (PropertyStatus::Inconclusive { .. }, Verdict::Inconclusive { .. }) => true,
            _ => false,
        }
    }
}

impl fmt::Display for PropertyStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyStatus::Falsified {
                depth,
                cex: Some(_),
            } => write!(f, "falsified at depth {depth} (with trace)"),
            other => other.verdict().fmt(f),
        }
    }
}

/// Outcome of a multi-property run: one [`PropertyStatus`] per bad-state
/// property (indexed like the design's bad literals) plus the aggregated
/// statistics of every backend that contributed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiResult {
    /// Per-property outcomes.
    pub statuses: Vec<PropertyStatus>,
    /// Aggregate statistics across all backends and property groups.
    pub stats: EngineStats,
}

impl MultiResult {
    /// Number of properties that received a definite answer.
    pub fn num_conclusive(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_conclusive()).count()
    }

    /// Returns `true` when every property received a definite answer.
    pub fn all_conclusive(&self) -> bool {
        self.statuses.iter().all(|s| s.is_conclusive())
    }
}

/// Configuration shared by all engines.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Maximum BMC bound explored before giving up.
    pub max_bound: usize,
    /// Wall-clock budget; engines stop with [`Verdict::Inconclusive`] when
    /// it is exhausted.
    pub timeout: Duration,
    /// BMC formulation used by the sequence-based engines (the paper
    /// advocates [`BmcCheck::ExactAssume`]).
    pub check: BmcCheck,
    /// Serial fraction `αs` of [`Engine::SerialItpSeq`] and
    /// [`Engine::ItpSeqCba`] (0 = fully parallel, 1 = fully serial).  The
    /// paper uses 0.5.
    pub alpha_serial: f64,
    /// Whether the SAT cores periodically retire high-LBD learned clauses
    /// (`true`, the default).  The switch exists for A/B validation: the
    /// reduction-regression tests re-run the suite with it off and assert
    /// bit-identical verdicts and counterexample depths.
    pub reduce_db: bool,
    /// Whether the engines collect proof certificates — inductive
    /// invariants for `Proved` verdicts, replayable counterexample input
    /// traces for `Falsified` ones (`true`, the default).  The switch
    /// exists for A/B validation: certification must never change a
    /// verdict, only attach evidence to it, and the regression tests
    /// re-run the suite with it off and compare.
    pub certificates: bool,
    /// Worker threads for the concurrent modes.
    ///
    /// `1` (the default) keeps every engine's internals strictly
    /// sequential — the deterministic reference.  Values above `1` let
    /// [`Engine::Pdr`] farm its per-frame propagation queries and
    /// generalization candidates out to that many workers, and give
    /// [`Engine::Portfolio`] its total worker budget (the race always
    /// uses one thread per entrant; the surplus parallelizes the PDR
    /// entrant).  `0` means "ask the machine"
    /// (`std::thread::available_parallelism`).
    pub threads: usize,
    /// Tracing handle the run emits spans, markers and progress samples
    /// through (see the `telemetry` crate).  Disabled by default
    /// ([`Telemetry::off`]), which reduces every instrumentation site to
    /// a single branch.  Tracing never changes verdicts: the determinism
    /// and A/B regression suites run with a recording sink attached.
    pub telemetry: Telemetry,
    /// Preprocessing pass pipeline configuration (every pass on by
    /// default; see [`aig::passes`]).  The engines then run on the
    /// reduced model and every counterexample trace and inductive-
    /// invariant certificate is mapped back to original-design
    /// coordinates before it leaves the run, so preprocessing never
    /// changes verdict kinds or counterexample depths — the A/B
    /// regression suite re-runs with it off and compares.
    pub preprocess: aig::passes::PassConfig,
    /// Conflicts between two telemetry progress-counter samples inside
    /// the SAT cores (see [`sat::ProgressProbe`]).  Only read when
    /// [`Options::telemetry`] is enabled; defaults to
    /// [`sat::DEFAULT_PROBE_INTERVAL`].
    pub probe_interval: u64,
    /// Shared memory budget, or `None` (the default) for unbounded runs.
    ///
    /// The budget governs the *aggregate* estimated footprint of every
    /// SAT solver of the run — clones of the `Options` share the
    /// accounting, so a portfolio's concurrent entrants and multi-PDR's
    /// frame solvers all draw from one pool.  Solvers check it at the
    /// same cadence as the interrupt flag and stop with a `memlimit`
    /// [`StopReason`], which engines surface exactly like a timeout.
    /// Build with [`Options::with_memory_limit`].
    pub memory_limit: Option<sat::MemoryBudget>,
    /// Deterministic fault-injection plan (unarmed by default; see
    /// [`sat::FaultPlan`]).  Chaos testing only: injected faults may flip
    /// a verdict to [`Verdict::Inconclusive`], never fabricate or change
    /// a conclusive answer, and never abort the process.
    pub faults: sat::FaultPlan,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_bound: 60,
            timeout: Duration::from_secs(30),
            check: BmcCheck::ExactAssume,
            alpha_serial: 0.5,
            reduce_db: true,
            certificates: true,
            threads: 1,
            telemetry: Telemetry::off(),
            preprocess: aig::passes::PassConfig::default(),
            probe_interval: sat::DEFAULT_PROBE_INTERVAL,
            memory_limit: None,
            faults: sat::FaultPlan::none(),
        }
    }
}

impl Options {
    /// Returns a copy with the given time budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Options {
        self.timeout = timeout;
        self
    }

    /// Returns a copy with the given maximum bound.
    pub fn with_max_bound(mut self, max_bound: usize) -> Options {
        self.max_bound = max_bound;
        self
    }

    /// Returns a copy with the given BMC check formulation.
    pub fn with_check(mut self, check: BmcCheck) -> Options {
        self.check = check;
        self
    }

    /// Returns a copy with the given serial fraction `αs`.
    pub fn with_alpha(mut self, alpha: f64) -> Options {
        self.alpha_serial = alpha;
        self
    }

    /// Returns a copy with learned-clause database reduction switched on
    /// or off (see [`Options::reduce_db`]).
    pub fn with_reduce_db(mut self, reduce_db: bool) -> Options {
        self.reduce_db = reduce_db;
        self
    }

    /// The [`sat::Solver::set_reduce_interval`] argument implementing
    /// [`Options::reduce_db`]: `None` (reduction disabled) when the A/B
    /// switch is off, the solver default otherwise.
    pub(crate) fn reduce_interval(&self) -> Option<u64> {
        if self.reduce_db {
            Some(sat::DEFAULT_REDUCE_FIRST)
        } else {
            None
        }
    }

    /// Returns a copy with certificate collection switched on or off
    /// (see [`Options::certificates`]).
    pub fn with_certificates(mut self, certificates: bool) -> Options {
        self.certificates = certificates;
        self
    }

    /// Returns a copy with the given worker-thread count (see
    /// [`Options::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Options {
        self.threads = threads;
        self
    }

    /// Returns a copy emitting trace events through `telemetry` (see
    /// [`Options::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Options {
        self.telemetry = telemetry;
        self
    }

    /// Returns a copy with the given preprocessing configuration (see
    /// [`Options::preprocess`]); pass [`aig::passes::PassConfig::off()`]
    /// to run engines on the raw design.
    pub fn with_preprocess(mut self, preprocess: aig::passes::PassConfig) -> Options {
        self.preprocess = preprocess;
        self
    }

    /// Returns a copy with the given telemetry counter-sample interval
    /// in conflicts (see [`Options::probe_interval`]).
    pub fn with_probe_interval(mut self, probe_interval: u64) -> Options {
        self.probe_interval = probe_interval;
        self
    }

    /// Returns a copy with a fresh shared memory budget of `bytes` (see
    /// [`Options::memory_limit`]).  Clones of the returned options share
    /// the budget's accounting.
    pub fn with_memory_limit(mut self, bytes: u64) -> Options {
        self.memory_limit = Some(sat::MemoryBudget::new(bytes));
        self
    }

    /// Returns a copy with the given fault-injection plan (see
    /// [`Options::faults`]).
    pub fn with_faults(mut self, faults: sat::FaultPlan) -> Options {
        self.faults = faults;
        self
    }

    /// The worker-thread count with the `0 = auto` convention resolved.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::engines::pool::default_threads()
        } else {
            self.threads
        }
    }
}

/// The verification engines evaluated in the paper, plus IC3/PDR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Plain bounded model checking (falsification only).
    Bmc,
    /// Standard interpolation (Fig. 1).
    Itp,
    /// Parallel interpolation sequences (Fig. 2).
    ItpSeq,
    /// Serial interpolation sequences (Fig. 4).
    SerialItpSeq,
    /// Serial interpolation sequences with counterexample-based abstraction
    /// (Fig. 5).
    ItpSeqCba,
    /// Property-directed reachability (IC3/PDR) — the post-2011 competitor
    /// of the interpolation engines.
    Pdr,
    /// A racing portfolio: PDR, ITPSEQCBA and BMC run concurrently on
    /// worker threads, the first conclusive verdict wins and the losers
    /// are cancelled (the paper's own conclusion that no single engine
    /// dominates, turned into a mode).
    Portfolio,
}

impl Engine {
    /// All engines: the paper's five in presentation order, then PDR and
    /// the racing portfolio.
    pub const ALL: [Engine; 7] = [
        Engine::Bmc,
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
        Engine::Portfolio,
    ];

    /// The name used in reports and plots.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Bmc => "BMC",
            Engine::Itp => "ITP",
            Engine::ItpSeq => "ITPSEQ",
            Engine::SerialItpSeq => "SITPSEQ",
            Engine::ItpSeqCba => "ITPSEQCBA",
            Engine::Pdr => "PDR",
            Engine::Portfolio => "PORTFOLIO",
        }
    }

    /// Runs this engine on bad-state property `bad_index` of `aig`.
    pub fn verify(self, aig: &aig::Aig, bad_index: usize, options: &Options) -> EngineResult {
        self.verify_with_cancel(aig, bad_index, options, &CancelToken::new())
    }

    /// Runs this engine under a cancellation token: the run stops with
    /// [`Verdict::Inconclusive`] (reason `"cancelled"`) soon after
    /// [`CancelToken::cancel`] is called from any thread.
    ///
    /// This is the staged pipeline entry: the design is first reduced by
    /// the preprocessing passes ([`Options::preprocess`]), the engine
    /// runs on the reduced model, and the verdict, counterexample trace
    /// and certificate are reconstructed back to original-design
    /// coordinates (see [`crate::pipeline`]).
    pub fn verify_with_cancel(
        self,
        aig: &aig::Aig,
        bad_index: usize,
        options: &Options,
        cancel: &CancelToken,
    ) -> EngineResult {
        if !options.preprocess.enabled() {
            return self.dispatch(aig, bad_index, options, cancel);
        }
        let prepared = crate::pipeline::prepare_property(aig, bad_index, options);
        prepared.verify_with_cancel(self, 0, options, cancel)
    }

    /// Runs the engine directly on `aig`, with no preprocessing stage.
    /// Inner entry used by the staged pipeline (which already reduced
    /// the model), the portfolio's entrants and the multi-property
    /// fallback loop.
    ///
    /// This is the panic-containment boundary: a panic anywhere inside
    /// the engine (including injected ones) is caught here and converted
    /// into [`Verdict::Inconclusive`] with a
    /// [`StopReason::Panic`] reason, so one faulted engine never takes
    /// down a portfolio race, a scheduler group or the process.
    pub(crate) fn dispatch(
        self,
        aig: &aig::Aig,
        bad_index: usize,
        options: &Options,
        cancel: &CancelToken,
    ) -> EngineResult {
        let faults_fired_before = options.faults.fired();
        let start = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run(aig, bad_index, options, cancel)
        }));
        let mut result = outcome.unwrap_or_else(|payload| {
            options.telemetry.instant_args("fault", || {
                vec![
                    ("engine", ArgValue::Str(self.name().to_string())),
                    ("panic", ArgValue::Str(panic_message(payload.as_ref()))),
                ]
            });
            let mut result = faulted_result(payload.as_ref());
            result.stats.time = start.elapsed();
            result
        });
        if options.faults.fired() && !faults_fired_before {
            result.stats.faults_injected += 1;
        }
        if let Verdict::Inconclusive {
            reason: StopReason::MemLimit,
            ..
        } = &result.verdict
        {
            result.stats.memlimit_hits += 1;
            options.telemetry.instant_args("memlimit", || {
                vec![("engine", ArgValue::Str(self.name().to_string()))]
            });
        }
        result
    }

    /// Runs the engine itself: no preprocessing, no panic containment.
    /// [`dispatch`](Self::dispatch) is its only production caller; the
    /// engines' unit tests call it directly, so a panic fails them loudly.
    pub(crate) fn run(
        self,
        aig: &aig::Aig,
        bad_index: usize,
        options: &Options,
        cancel: &CancelToken,
    ) -> EngineResult {
        use crate::engines::{bmc, itp, pdr, portfolio, seq};
        match self {
            Engine::Bmc => bmc::run(aig, bad_index, options, cancel),
            Engine::Itp => itp::run(aig, bad_index, options, cancel),
            Engine::ItpSeq => seq::run(aig, bad_index, options, seq::ITPSEQ, cancel),
            Engine::SerialItpSeq => seq::run(aig, bad_index, options, seq::SITPSEQ, cancel),
            Engine::ItpSeqCba => seq::run(aig, bad_index, options, seq::ITPSEQCBA, cancel),
            Engine::Pdr => pdr::run(aig, bad_index, options, cancel),
            Engine::Portfolio => portfolio::run(aig, bad_index, options, cancel),
        }
    }

    /// Verifies *every* bad-state property of `aig` in one run and
    /// returns one [`PropertyStatus`] per property.
    ///
    /// For [`Engine::Bmc`], [`Engine::Pdr`] and [`Engine::Portfolio`] the
    /// run is genuinely amortized (see [`crate::multi`]): one unrolling /
    /// frame trace / scheduler serves all properties, with per-property
    /// retirement.  The remaining engines fall back to a per-property
    /// loop.  Verdict kinds and counterexample depths always match the
    /// per-property [`Engine::verify`] loop.
    pub fn verify_all(self, aig: &aig::Aig, options: &Options) -> crate::MultiResult {
        self.verify_all_with_cancel(aig, options, &CancelToken::new())
    }

    /// [`verify_all`](Self::verify_all) under a cancellation token.
    pub fn verify_all_with_cancel(
        self,
        aig: &aig::Aig,
        options: &Options,
        cancel: &CancelToken,
    ) -> crate::MultiResult {
        crate::multi::verify_all_with_engine(aig, self, options, cancel)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders a caught panic payload as a message string (panics raise
/// `&str` or `String` payloads in practice; anything else gets a
/// placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What a panic contained at an engine boundary turns into:
/// [`Verdict::Inconclusive`] at bound 0 with the panic message as a
/// [`StopReason::Panic`], and statistics counting the one contained panic.
pub(crate) fn faulted_result(payload: &(dyn std::any::Any + Send)) -> EngineResult {
    EngineResult {
        verdict: Verdict::Inconclusive {
            reason: StopReason::Panic(panic_message(payload)),
            bound_reached: 0,
        },
        stats: EngineStats {
            panics_contained: 1,
            ..EngineStats::default()
        },
        certificate: None,
    }
}

/// [`faulted_result`] for a multi-property backend: each of its `n`
/// properties inconclusive with the contained panic as the reason.  A
/// racing partner's statuses win the per-property adoption (a panic
/// carries `bound_reached` 0), so one faulted backend never costs a group
/// its conclusive answers.
pub(crate) fn faulted_multi_result(n: usize, payload: &(dyn std::any::Any + Send)) -> MultiResult {
    let faulted = faulted_result(payload);
    MultiResult {
        statuses: vec![PropertyStatus::from_verdict(faulted.verdict); n],
        stats: faulted.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Proved { k_fp: 3, j_fp: 2 }.is_proved());
        assert!(Verdict::Falsified { depth: 4 }.is_falsified());
        let inconclusive = Verdict::Inconclusive {
            reason: StopReason::Timeout,
            bound_reached: 7,
        };
        assert!(!inconclusive.is_conclusive());
        assert!(Verdict::Proved { k_fp: 1, j_fp: 1 }.is_conclusive());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(
            Verdict::Proved { k_fp: 5, j_fp: 3 }.to_string(),
            "proved (k_fp=5, j_fp=3)"
        );
        assert_eq!(
            Verdict::Falsified { depth: 2 }.to_string(),
            "falsified at depth 2"
        );
        assert!(Verdict::Inconclusive {
            reason: StopReason::Timeout,
            bound_reached: 9
        }
        .to_string()
        .contains("bound 9"));
    }

    #[test]
    fn stop_reasons_render_and_compare_as_strings() {
        assert_eq!(StopReason::Timeout.to_string(), "timeout");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::MemLimit.to_string(), "memlimit");
        assert_eq!(StopReason::BoundExhausted.to_string(), "bound exhausted");
        assert_eq!(StopReason::Retired.to_string(), "retired");
        assert_eq!(StopReason::panic("boom").to_string(), "panic:boom");
        assert_eq!(StopReason::other("gave up").to_string(), "gave up");
        // String comparisons mirror Display exactly.
        assert_eq!(StopReason::Timeout, "timeout");
        assert_eq!(StopReason::panic("boom"), "panic:boom");
        assert!(StopReason::MemLimit != "timeout");
        assert!(StopReason::Timeout.is_budget_stop());
        assert!(StopReason::MemLimit.is_budget_stop());
        assert!(!StopReason::BoundExhausted.is_budget_stop());
        assert!(!StopReason::panic("x").is_budget_stop());
    }

    #[test]
    fn options_builders() {
        let o = Options::default()
            .with_max_bound(10)
            .with_timeout(Duration::from_millis(500))
            .with_check(BmcCheck::Exact)
            .with_alpha(0.25);
        assert_eq!(o.max_bound, 10);
        assert_eq!(o.timeout, Duration::from_millis(500));
        assert_eq!(o.check, BmcCheck::Exact);
        assert!((o.alpha_serial - 0.25).abs() < 1e-9);
    }

    #[test]
    fn engine_names_are_unique() {
        let names: Vec<&str> = Engine::ALL.iter().map(|e| e.name()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
        assert_eq!(Engine::ItpSeqCba.to_string(), "ITPSEQCBA");
    }
}
