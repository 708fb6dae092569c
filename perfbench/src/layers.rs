//! Per-layer metrics of one traced pass.
//!
//! Everything here is read from outside the program: the spans the
//! engines already emit (summarised by `telemetry::report::TraceReport`),
//! the harness's own `bench.*` spans around its calls into the public
//! API, and the `EngineStats` counters each job returns.

use crate::{JobKind, Outcome};
use mc::Engine;
use telemetry::report::TraceReport;
use telemetry::{ArgValue, Event, EventKind};

/// The per-layer metrics, in report order, with their units.  Each is a
/// per-pass figure (the run reports the median over its traced passes)
/// unless the benchmark documentation says otherwise.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("aig.parse_ms", "ms"),
    ("preprocess.ms", "ms"),
    ("preprocess.latches_removed", "count"),
    ("preprocess.ands_removed", "count"),
    ("cnf.encode_ms", "ms"),
    ("cnf.clauses_encoded", "count"),
    ("sat.search_ms", "ms"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_ms", "1/ms"),
    ("itp.interpolate_ms", "ms"),
    ("itp.interpolants", "count"),
    ("itp.ms_per_interpolant", "ms"),
    ("engines.bound_self_ms", "ms"),
    ("engines.bounds", "count"),
    ("engines.dark_frac", "share"),
    ("pdr.blocking_ms", "ms"),
    ("pdr.propagate_ms", "ms"),
    ("pdr.obligations", "count"),
    ("portfolio.overhead_ratio", "ratio"),
    ("portfolio.wasted_ms", "ms"),
    ("portfolio.wins.pdr", "count"),
    ("portfolio.wins.bmc", "count"),
    ("portfolio.wins.itpseqcba", "count"),
    ("multi.amortization", "ratio"),
    ("multi.coi_groups", "count"),
    ("multi.props", "count"),
    ("cert.emit_ms", "ms"),
    ("certify.check_ms", "ms"),
    ("trace.overhead_frac", "share"),
    ("determinism.match_frac", "share"),
];

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summed self time of spans named `name`, on `track` or on every track.
fn self_ms(report: &TraceReport, name: &str, track: Option<&str>) -> f64 {
    report
        .spans
        .iter()
        .filter(|s| s.name == name && track.is_none_or(|t| s.track == t))
        .map(|s| ms(s.self_us))
        .sum()
}

fn total_ms(report: &TraceReport, name: &str, track: Option<&str>) -> f64 {
    report
        .spans
        .iter()
        .filter(|s| s.name == name && track.is_none_or(|t| s.track == t))
        .map(|s| ms(s.total_us))
        .sum()
}

/// Engine container spans: they group work rather than do it, so their
/// self time is time no named layer accounts for.
fn is_container(name: &str) -> bool {
    name == "bound" || name == "level" || name.ends_with(".run") || name.ends_with(".multi")
}

/// The per-pass metrics of one traced pass.  `jobs` pairs every job's
/// kind and design property count with its outcome.  Run-level metrics
/// (`multi.coi_groups`, `trace.overhead_frac`, `determinism.match_frac`)
/// are filled in by the caller.
pub fn pass_metrics(
    report: &TraceReport,
    events: &[Event],
    jobs: &[(JobKind, usize, &Outcome)],
) -> Vec<(&'static str, f64)> {
    let sum_stats = |f: &dyn Fn(&mc::EngineStats) -> f64| -> f64 {
        jobs.iter().map(|(_, _, o)| f(&o.stats)).sum()
    };
    let job_time = |pick: &dyn Fn(JobKind, usize) -> bool| -> f64 {
        jobs.iter()
            .filter(|(kind, props, _)| pick(*kind, *props))
            .map(|(_, _, o)| o.time.as_secs_f64())
            .sum()
    };
    let main = Some("main");
    let search_ms = self_ms(report, "sat", None);
    let propagations = sum_stats(&|s| s.propagations as f64);
    let interpolate_ms = self_ms(report, "interpolate", main);
    let interpolants = sum_stats(&|s| s.interpolants as f64);
    let main_busy = report
        .tracks
        .iter()
        .find(|t| t.track == "main")
        .map_or(0, |t| t.busy_us);
    let container_us: u64 = report
        .spans
        .iter()
        .filter(|s| s.track == "main" && is_container(&s.name))
        .map(|s| s.self_us)
        .sum();
    // The `obligations` counter carries the count of one blocking phase
    // (not a running total), so it is summed from the raw events.
    let obligations: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "obligations")
        .flat_map(|e| e.args.iter())
        .filter_map(|(key, value)| match (key, value) {
            (&"processed", ArgValue::U64(n)) => Some(*n),
            _ => None,
        })
        .sum();
    let wins = |entrant: &str| -> f64 {
        report.portfolio.as_ref().map_or(0.0, |p| {
            p.entrants
                .iter()
                .filter(|e| e.entrant == entrant)
                .map(|e| e.wins as f64)
                .sum()
        })
    };
    let single = |engine: Engine| move |kind: JobKind, _: usize| kind == JobKind::Single(engine);
    vec![
        ("aig.parse_ms", total_ms(report, "bench.parse", main)),
        ("preprocess.ms", total_ms(report, "bench.prepare", main)),
        (
            "preprocess.latches_removed",
            jobs.iter().map(|(_, _, o)| o.latches_removed as f64).sum(),
        ),
        (
            "preprocess.ands_removed",
            jobs.iter().map(|(_, _, o)| o.ands_removed as f64).sum(),
        ),
        (
            "cnf.encode_ms",
            sum_stats(&|s| s.encode_time.as_secs_f64() * 1e3),
        ),
        (
            "cnf.clauses_encoded",
            sum_stats(&|s| s.clauses_encoded as f64),
        ),
        ("sat.search_ms", search_ms),
        ("sat.calls", sum_stats(&|s| s.sat_calls as f64)),
        ("sat.conflicts", sum_stats(&|s| s.conflicts as f64)),
        ("sat.propagations", propagations),
        ("sat.props_per_ms", ratio(propagations, search_ms)),
        ("itp.interpolate_ms", interpolate_ms),
        ("itp.interpolants", interpolants),
        (
            "itp.ms_per_interpolant",
            ratio(interpolate_ms, interpolants),
        ),
        ("engines.bound_self_ms", self_ms(report, "bound", main)),
        (
            "engines.bounds",
            report
                .spans
                .iter()
                .filter(|s| s.track == "main" && s.name == "bound")
                .map(|s| s.count as f64)
                .sum(),
        ),
        (
            "engines.dark_frac",
            ratio(container_us as f64, main_busy as f64),
        ),
        ("pdr.blocking_ms", self_ms(report, "blocking", None)),
        ("pdr.propagate_ms", self_ms(report, "propagate", None)),
        ("pdr.obligations", obligations as f64),
        (
            "portfolio.overhead_ratio",
            ratio(
                job_time(&single(Engine::Portfolio)),
                job_time(&single(Engine::Pdr)),
            ),
        ),
        (
            "portfolio.wasted_ms",
            report.portfolio.as_ref().map_or(0.0, |p| ms(p.wasted_us)),
        ),
        ("portfolio.wins.pdr", wins("PDR")),
        ("portfolio.wins.bmc", wins("BMC")),
        ("portfolio.wins.itpseqcba", wins("ITPSEQCBA")),
        (
            "multi.amortization",
            ratio(
                job_time(&|kind, props| props > 1 && kind == JobKind::Single(Engine::Portfolio)),
                job_time(&|kind, props| props > 1 && kind == JobKind::All),
            ),
        ),
        (
            "multi.props",
            jobs.iter()
                .filter(|(kind, _, _)| *kind == JobKind::All)
                .map(|(_, props, _)| *props as f64)
                .sum(),
        ),
        ("cert.emit_ms", total_ms(report, "certificate.emit", None)),
        ("certify.check_ms", total_ms(report, "bench.certify", main)),
    ]
}
