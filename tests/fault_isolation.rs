//! Chaos suite: deterministic fault injection across the engine stack.
//!
//! The contract under test: an injected fault — a panic, a spurious
//! interrupt or a simulated allocation failure, fired at a solver
//! conflict, a clause-arena allocation or an engine phase — may cost a
//! run its verdict, but it must never
//!
//! 1. crash the process (every dispatch boundary contains the unwind),
//! 2. flip a conclusive answer (a faulted run that still concludes
//!    agrees with the clean run, counterexample depths included), or
//! 3. surface as anything but an `Inconclusive` verdict with a
//!    machine-readable stop reason.
//!
//! The seeded sweep runs everywhere; the full-suite stress variant is
//! `#[ignore]`d and exercised by CI's chaos job
//! (`cargo test --release --test fault_isolation -- --include-ignored`).

use itpseq::mc::{CancelToken, Engine, EngineResult, Options, PropertyStatus, StopReason, Verdict};
use itpseq::sat::{FaultKind, FaultPlan, FaultSite};
use itpseq::telemetry::{Event, EventKind, Telemetry, TelemetrySink};
use itpseq::workloads::Benchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ENGINES: [Engine; 4] = [Engine::ItpSeq, Engine::Pdr, Engine::Bmc, Engine::Portfolio];

fn options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(30))
        .with_max_bound(40)
}

fn small_suite() -> Vec<Benchmark> {
    itpseq::workloads::suite::mid_size()
        .into_iter()
        .take(2)
        .collect()
}

/// The chaos invariant, checked for one faulted run against its clean
/// reference; returns `true` when the fault cost the run its verdict.
fn assert_sound(context: &str, clean: &Verdict, chaos: &EngineResult) -> bool {
    match &chaos.verdict {
        Verdict::Proved { .. } => {
            assert!(
                !clean.is_falsified(),
                "{context}: fault flipped {clean} to {}",
                chaos.verdict
            );
            false
        }
        Verdict::Falsified { depth } => {
            assert!(
                !clean.is_proved(),
                "{context}: fault flipped {clean} to {}",
                chaos.verdict
            );
            if let Verdict::Falsified { depth: reference } = clean {
                assert_eq!(
                    depth, reference,
                    "{context}: counterexample depth must stay minimal"
                );
            }
            false
        }
        Verdict::Inconclusive { reason, .. } => {
            assert!(
                !reason.to_string().is_empty(),
                "{context}: a degraded run must carry a machine-readable reason"
            );
            true
        }
    }
}

/// Seeded sweep over benchmarks × engines: every run survives, no
/// conclusive answer flips, and the sweep lands at least one fault.
#[test]
fn seeded_faults_are_contained_and_sound() {
    let mut fired = 0u64;
    for benchmark in &small_suite() {
        for engine in ENGINES {
            let clean = engine.verify(&benchmark.aig, 0, &options()).verdict;
            for seed in 0..5u64 {
                let chaos = options().with_faults(FaultPlan::seeded(seed));
                let result = engine.verify(&benchmark.aig, 0, &chaos);
                let context = format!("{} / {} / seed {seed}", benchmark.name, engine.name());
                assert_sound(&context, &clean, &result);
                fired += result.stats.faults_injected;
            }
        }
    }
    assert!(fired > 0, "the sweep must land at least one fault");
}

/// Every (site, kind) combination is contained; an unwind that costs the
/// verdict is counted and reported as a `panic:` reason.
#[test]
fn every_fault_site_and_kind_is_contained() {
    // A workload with real search: a propagation-only run never ticks
    // the conflict site, so the sweep needs a benchmark whose clean run
    // reports conflicts.
    let base = options().with_threads(1);
    let (benchmark, clean) = itpseq::workloads::suite::mid_size()
        .into_iter()
        .find_map(|b| {
            let result = Engine::ItpSeq.verify(&b.aig, 0, &base);
            (result.stats.conflicts > 0).then_some((b, result.verdict))
        })
        .expect("a mid-size benchmark with conflicts");
    for site in [FaultSite::Conflict, FaultSite::Alloc, FaultSite::Phase] {
        for kind in [FaultKind::Panic, FaultKind::Interrupt, FaultKind::AllocFail] {
            let chaos = base.clone().with_faults(FaultPlan::inject(site, kind, 1));
            let result = Engine::ItpSeq.verify(&benchmark.aig, 0, &chaos);
            let context = format!("{site:?}/{kind:?}");
            let degraded = assert_sound(&context, &clean, &result);
            assert_eq!(
                result.stats.faults_injected, 1,
                "{context}: the armed fault fires exactly once"
            );
            if degraded {
                match kind {
                    FaultKind::Panic | FaultKind::AllocFail => {
                        assert!(
                            result.stats.panics_contained >= 1,
                            "{context}: the contained unwind must be counted"
                        );
                        assert!(
                            matches!(
                                &result.verdict,
                                Verdict::Inconclusive {
                                    reason: StopReason::Panic(_),
                                    ..
                                }
                            ),
                            "{context}: expected a panic reason, got {}",
                            result.verdict
                        );
                    }
                    FaultKind::Interrupt => {}
                }
            }
        }
    }
}

/// The interpolation engines whose fixpoint checks run on the persistent
/// state-space solver.
const FIXPOINT_ENGINES: [Engine; 4] = [
    Engine::Itp,
    Engine::ItpSeq,
    Engine::SerialItpSeq,
    Engine::ItpSeqCba,
];

/// Faults fired inside the fixpoint layer are contained and flip no
/// verdict: an injected panic unwinds to the dispatch boundary, an
/// injected interrupt stops the run like a timeout would.
#[test]
fn fixpoint_faults_are_contained_and_sound() {
    let mut seeded_fired = 0u64;
    let seeded: Vec<FaultPlan> = (0..64u64)
        .map(FaultPlan::seeded)
        .filter(|plan| plan.site() == Some(FaultSite::Fixpoint))
        .take(3)
        .collect();
    assert!(
        !seeded.is_empty(),
        "the seeded derivation reaches the fixpoint site"
    );
    for benchmark in &small_suite() {
        for engine in FIXPOINT_ENGINES {
            let clean = engine.verify(&benchmark.aig, 0, &options());
            let checks = clean.stats.fixpoint_checks;
            assert!(
                checks > 0,
                "{} / {}: no fixpoint check",
                benchmark.name,
                engine.name()
            );
            for kind in [FaultKind::Panic, FaultKind::Interrupt, FaultKind::AllocFail] {
                for at in [1, checks] {
                    let plan = FaultPlan::inject(FaultSite::Fixpoint, kind, at);
                    let result = engine.verify(&benchmark.aig, 0, &options().with_faults(plan));
                    let context = format!(
                        "{} / {} / {kind:?} at check {at}",
                        benchmark.name,
                        engine.name()
                    );
                    assert!(assert_sound(&context, &clean.verdict, &result), "{context}");
                    assert_eq!(result.stats.faults_injected, 1, "{context}");
                    let Verdict::Inconclusive { reason, .. } = &result.verdict else {
                        unreachable!("assert_sound reported a degraded run")
                    };
                    match kind {
                        FaultKind::Panic | FaultKind::AllocFail => {
                            assert!(
                                matches!(reason, StopReason::Panic(_)),
                                "{context}: {reason}"
                            )
                        }
                        FaultKind::Interrupt => {
                            assert_eq!(reason.to_string(), "fault:interrupt", "{context}")
                        }
                    }
                }
            }
            for plan in &seeded {
                let result = engine.verify(&benchmark.aig, 0, &options().with_faults(plan.clone()));
                let context = format!("{} / {} / seeded {plan:?}", benchmark.name, engine.name());
                assert_sound(&context, &clean.verdict, &result);
                seeded_fired += result.stats.faults_injected;
            }
        }
    }
    assert!(seeded_fired > 0, "a seeded fixpoint fault must fire");
}

/// Cancels the run it observes at the start of its `at`-th `fixpoint`
/// span, and remembers when.
struct CancelAtFixpoint {
    cancel: CancelToken,
    at: u64,
    seen: AtomicU64,
    cancelled: Mutex<Option<Instant>>,
}

impl TelemetrySink for CancelAtFixpoint {
    fn record(&self, event: Event) {
        if event.kind == EventKind::Begin
            && event.name == "fixpoint"
            && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at
        {
            *self.cancelled.lock().expect("sink lock") = Some(Instant::now());
            self.cancel.cancel();
        }
    }
}

/// A cancelled ITPSEQ run stops promptly on a design where the fixpoint
/// checks dominate: the persistent fixpoint solver takes the run's
/// interrupt flag like every other solver of the run.
#[test]
fn cancelled_itpseq_stops_promptly_in_the_fixpoint_layer() {
    // A 7-bit counter wrapping at 90: proving 127 unreachable takes ITPSEQ
    // 90 bounds, and the column checks, quadratic in the bound, take most
    // of the run.  The cancel lands at the 300th check, around bound 24.
    let aig = itpseq::workloads::counter::modular(7, 90, 127);
    let cancel = CancelToken::new();
    let sink = Arc::new(CancelAtFixpoint {
        cancel: cancel.clone(),
        at: 300,
        seen: AtomicU64::new(0),
        cancelled: Mutex::new(None),
    });
    let options = options()
        .with_max_bound(200)
        .with_telemetry(Telemetry::new(sink.clone()));
    let result = Engine::ItpSeq.verify_with_cancel(&aig, 0, &options, &cancel);
    let cancelled = sink
        .cancelled
        .lock()
        .expect("sink lock")
        .expect("the run reached its 300th fixpoint check");
    let latency = cancelled.elapsed();
    assert!(
        matches!(
            &result.verdict,
            Verdict::Inconclusive {
                reason: StopReason::Cancelled,
                ..
            }
        ),
        "{}",
        result.verdict
    );
    assert!(
        latency < Duration::from_secs(1),
        "the run took {latency:?} to stop after the cancel"
    );
}

/// Chaos runs are reproducible: the same seed yields the same verdict,
/// run after run (single-threaded, so the fault countdown is exact).
#[test]
fn chaos_runs_are_deterministic() {
    let benchmark = &small_suite()[0];
    for seed in [1u64, 7, 23] {
        let chaos = || {
            options()
                .with_threads(1)
                .with_faults(FaultPlan::seeded(seed))
        };
        let reference = Engine::ItpSeq.verify(&benchmark.aig, 0, &chaos()).verdict;
        for run in 0..2 {
            let again = Engine::ItpSeq.verify(&benchmark.aig, 0, &chaos()).verdict;
            assert_eq!(reference, again, "seed {seed} run {run}");
        }
    }
}

/// A panic inside a parallel-PDR pool worker is replayed sequentially:
/// whenever the pool contained the fault, the verdict is the one the
/// unfaulted single-threaded run produces.
#[test]
fn pdr_pool_fault_keeps_verdicts_thread_count_invariant() {
    let benchmark = &small_suite()[0];
    let clean = Engine::Pdr
        .verify(&benchmark.aig, 0, &options().with_threads(1))
        .verdict;
    let parallel = Engine::Pdr
        .verify(&benchmark.aig, 0, &options().with_threads(4))
        .verdict;
    assert_eq!(clean, parallel, "parallel PDR must match sequential PDR");
    for at in [1u64, 5, 20] {
        let chaos = options().with_threads(4).with_faults(FaultPlan::inject(
            FaultSite::Conflict,
            FaultKind::Panic,
            at,
        ));
        let result = Engine::Pdr.verify(&benchmark.aig, 0, &chaos);
        match &result.verdict {
            // The fault fired outside the pool: contained at the
            // dispatch boundary, reported as a panic.
            Verdict::Inconclusive {
                reason: StopReason::Panic(_),
                ..
            } => assert!(result.stats.panics_contained >= 1, "at={at}"),
            verdict => assert_eq!(verdict, &clean, "at={at}"),
        }
        if result.stats.pool_seq_reruns > 0 {
            assert_eq!(
                result.verdict, clean,
                "at={at}: a pool-contained fault must not cost the verdict"
            );
        }
    }
}

/// Faults in the multi-property scheduler (COI groups racing multi-PDR
/// against multi-BMC) degrade statuses, never flip them.
#[test]
fn multi_property_chaos_never_flips_statuses() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let clean = Engine::Portfolio.verify_all(&aig, &options());
    for seed in 0..4u64 {
        let chaos = options().with_faults(FaultPlan::seeded(seed));
        let faulted = Engine::Portfolio.verify_all(&aig, &chaos);
        for (i, (reference, status)) in clean.statuses.iter().zip(&faulted.statuses).enumerate() {
            if status.is_conclusive() {
                assert_eq!(
                    reference.kind_and_depth(),
                    status.kind_and_depth(),
                    "property {i} seed {seed}"
                );
            }
        }
    }
}

/// A spurious interrupt answers some query `Interrupted` with no budget
/// exhausted; no engine may read that answer as "unsatisfiable".  PDR
/// used to take an interrupted frontier probe for a clean frontier: it
/// proved falsified properties, or tripped an internal assertion.  The
/// sweep runs single-threaded, so every fault lands at the same query
/// on every run.
#[test]
fn spurious_interrupts_never_read_as_unsat() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let base = options().with_threads(1);
    let mut fired = 0u64;
    let clean = Engine::Pdr.verify_all(&aig, &base);
    for at in 1..=64u64 {
        let plan = || FaultPlan::inject(FaultSite::Alloc, FaultKind::Interrupt, at);
        let verify_all_plan = plan();
        let faulted =
            Engine::Pdr.verify_all(&aig, &base.clone().with_faults(verify_all_plan.clone()));
        fired += u64::from(verify_all_plan.fired());
        for (i, (reference, status)) in clean.statuses.iter().zip(&faulted.statuses).enumerate() {
            let context = format!("verify_all, property {i}, interrupt at allocation {at}");
            if status.is_conclusive() {
                assert_eq!(
                    reference.kind_and_depth(),
                    status.kind_and_depth(),
                    "{context}"
                );
            }
        }
        assert_eq!(
            faulted.stats.panics_contained, 0,
            "interrupt at allocation {at}"
        );
        for (i, reference) in clean.statuses.iter().enumerate() {
            let result = Engine::Pdr.verify(&aig, i, &base.clone().with_faults(plan()));
            fired += result.stats.faults_injected;
            let context = format!("property {i}, interrupt at allocation {at}");
            if result.verdict.is_conclusive() {
                assert!(
                    reference.agrees_with(&result.verdict),
                    "{context}: {}",
                    result.verdict
                );
            }
            assert_eq!(result.stats.panics_contained, 0, "{context}");
        }
    }
    assert!(fired > 0, "the sweep must land at least one interrupt");
}

/// The direct multi-property backends (`Engine::Pdr.verify_all` and
/// `Engine::Bmc.verify_all`, outside the scheduler) contain their own
/// panics: an injected panic turns every property of the run
/// inconclusive with a `panic:` reason instead of unwinding into the
/// caller.
#[test]
fn direct_multi_backend_panics_are_contained() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let base = options().with_threads(1);
    let mut fired = 0u64;
    for engine in [Engine::Pdr, Engine::Bmc] {
        for site in [FaultSite::Conflict, FaultSite::Alloc, FaultSite::Phase] {
            let plan = FaultPlan::inject(site, FaultKind::Panic, 1);
            let faulted = engine.verify_all(&aig, &base.clone().with_faults(plan.clone()));
            let context = format!("{} / {site:?}", engine.name());
            if !plan.fired() {
                // This backend never reaches the site on this design.
                assert_eq!(faulted.stats.panics_contained, 0, "{context}");
                continue;
            }
            fired += 1;
            assert_eq!(faulted.stats.panics_contained, 1, "{context}");
            for (i, status) in faulted.statuses.iter().enumerate() {
                assert!(
                    matches!(
                        status,
                        PropertyStatus::Inconclusive {
                            reason: StopReason::Panic(_),
                            ..
                        }
                    ),
                    "{context}: property {i} must carry the panic, got {status}"
                );
            }
        }
    }
    assert!(fired >= 5, "the sweep must land the panic at five sites");
}

/// An industrial run under a starved memory budget terminates with the
/// `memlimit` reason — surfaced exactly like a timeout, plus the hit
/// counter in the stats.
#[test]
fn memory_limited_run_stops_with_memlimit_reason() {
    let benchmark = itpseq::workloads::suite::industrial()
        .into_iter()
        .next()
        .expect("industrial suite is not empty");
    let starved = options()
        .with_timeout(Duration::from_secs(60))
        .with_memory_limit(1 << 16);
    let result = Engine::ItpSeq.verify(&benchmark.aig, 0, &starved);
    match &result.verdict {
        Verdict::Inconclusive {
            reason: StopReason::MemLimit,
            ..
        } => {}
        other => panic!("expected a memlimit stop, got {other}"),
    }
    assert!(
        result.stats.memlimit_hits >= 1,
        "the hit must be observable in the stats"
    );
}

/// Full-suite chaos sweep — the CI chaos job's release-mode workload.
#[test]
#[ignore = "full chaos sweep; CI's chaos job runs this in release mode"]
fn full_suite_chaos_sweep() {
    let mut fired = 0u64;
    for benchmark in &itpseq::workloads::suite::full() {
        for engine in ENGINES {
            let clean = engine.verify(&benchmark.aig, 0, &options()).verdict;
            for seed in 0..4u64 {
                let chaos = options().with_faults(FaultPlan::seeded(seed));
                let result = engine.verify(&benchmark.aig, 0, &chaos);
                let context = format!("{} / {} / seed {seed}", benchmark.name, engine.name());
                assert_sound(&context, &clean, &result);
                fired += result.stats.faults_injected;
            }
        }
    }
    assert!(fired > 0, "the sweep must land at least one fault");
}
