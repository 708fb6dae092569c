//! Seeded end-to-end and per-layer benchmark of the model-checking
//! engines.
//!
//! ```text
//! itpseq-perfbench --workload seq-proofs|industrial-race|multi-prop
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! The run draws its designs from the seed, round-trips each through
//! AIGER text, runs one untraced warm-up pass over every job, then repeats
//! timed passes for `S` seconds.  Every job's verdict is checked against
//! the expectation from the design's construction, against every other
//! engine on the same property, and through the independent certificate
//! checker.  With `--trace 1`, passes alternate between untraced and
//! traced, and the traced ones give the per-layer split.  The last line
//! of standard output is the result object; the line before it records
//! the run's parameters.  See `README.md` next to this crate.

mod designs;
mod layers;

use designs::{Expect, Slot, HELD_OUT_SEED, WORKLOADS};
use mc::{CertRecord, Engine, EngineStats, Options, PropertyStatus};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::report::TraceReport;
use telemetry::{MemorySink, Telemetry};

/// A pass during which other guests of the host took more than this
/// share of the machine's CPU time is left out of the figures.
const STEAL_LIMIT: f64 = 0.02;
/// The fewest passes the figures rest on: when fewer passes are quiet,
/// the least disturbed ones are used.
const MIN_KEPT: usize = 3;
/// Clock ticks per second of the `/proc/stat` counters (Linux `USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;
/// Per-job budget: a job that does not finish inside it fails.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Deep enough for the deepest counterexample any slot can draw.
const MAX_BOUND: usize = 256;
/// BDD node budget of the fixtures' exact reference.
const BDD_NODE_LIMIT: usize = 1 << 20;

/// The end-to-end metrics, with their units.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("solved_frac", "share"),
    ("peak_rss_mb", "MB"),
    ("engine_s.itp", "s"),
    ("engine_s.itpseq", "s"),
    ("engine_s.sitpseq", "s"),
    ("engine_s.itpseqcba", "s"),
    ("engine_s.pdr", "s"),
    ("engine_s.portfolio", "s"),
    ("engine_s.verify_all", "s"),
];

/// What one job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// `prepare_property` + `Prepared::verify` on one property.
    Single(Engine),
    /// `prepare` + `Prepared::verify_all` with the portfolio scheduler.
    All,
}

impl JobKind {
    /// The `engine_s.*` suffix of the kind.
    fn label(self) -> &'static str {
        match self {
            JobKind::Single(Engine::Itp) => "itp",
            JobKind::Single(Engine::ItpSeq) => "itpseq",
            JobKind::Single(Engine::SerialItpSeq) => "sitpseq",
            JobKind::Single(Engine::ItpSeqCba) => "itpseqcba",
            JobKind::Single(Engine::Pdr) => "pdr",
            JobKind::Single(Engine::Portfolio) => "portfolio",
            JobKind::Single(Engine::Bmc) => "bmc",
            JobKind::All => "verify_all",
        }
    }

    /// Whether the work counters must repeat exactly: the portfolio and
    /// the verify_all scheduler race threads, so theirs may not.
    fn deterministic(self) -> bool {
        !matches!(self, JobKind::Single(Engine::Portfolio) | JobKind::All)
    }
}

/// A drawn design as the engines see it: generated, written as AIGER
/// text and parsed back.
struct Design {
    name: String,
    aig: aig::Aig,
    expect: Vec<Expect>,
}

#[derive(Clone, Copy)]
struct Job {
    design: usize,
    kind: JobKind,
    property: usize,
}

/// A property's verdict kind and counterexample depth, and the job kind
/// that first reported it, per (design, property).
type Consensus = HashMap<(usize, usize), ((&'static str, Option<usize>), JobKind)>;

/// What one job returned.
pub struct Outcome {
    pub time: Duration,
    pub stats: EngineStats,
    pub latches_removed: u64,
    pub ands_removed: u64,
    statuses: Vec<(usize, PropertyStatus)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One set-up: generate every design and round-trip it through AIGER
/// text.  The parse runs under a `bench.parse` span.
fn setup(slots: &[Slot], telemetry: &Telemetry) -> Vec<(String, aig::Aig)> {
    let texts: Vec<(String, String)> = slots
        .iter()
        .map(|s| {
            let built = s.params.build();
            (built.name().to_string(), aig::to_aag(&built))
        })
        .collect();
    let _parse = telemetry.span("bench.parse");
    texts
        .into_iter()
        .map(|(name, text)| {
            (
                name,
                aig::parse_aag(&text).expect("the writer's output parses"),
            )
        })
        .collect()
}

/// Exact per-property reference for designs whose expectation does not
/// follow from their construction.
fn bdd_expectation(aig: &aig::Aig) -> Result<Vec<Expect>, String> {
    (0..aig.num_bad())
        .map(
            |p| match bdd::reach::analyze(aig, p, BDD_NODE_LIMIT).verdict {
                bdd::reach::BddVerdict::Pass => Ok(Expect::Holds),
                bdd::reach::BddVerdict::Fail { depth } => Ok(Expect::FailsAt(depth)),
                bdd::reach::BddVerdict::Overflow => Err(format!("BDD overflow on property {p}")),
            },
        )
        .collect()
}

fn run_job(design: &Design, job: Job, options: &Options) -> Outcome {
    let telemetry = &options.telemetry;
    let start = Instant::now();
    let (stats, prepared_stats, statuses) = match job.kind {
        JobKind::Single(engine) => {
            let span = telemetry.span("bench.prepare");
            let prepared = mc::prepare_property(&design.aig, job.property, options);
            span.end();
            let _verify = telemetry.span("bench.verify");
            let result = prepared.verify(engine, 0, options);
            let status = PropertyStatus::from_result(&result);
            (result.stats, prepared.stats, vec![(job.property, status)])
        }
        JobKind::All => {
            let span = telemetry.span("bench.prepare");
            let prepared = mc::prepare(&design.aig, options);
            span.end();
            let _verify = telemetry.span("bench.verify_all");
            let result = prepared.verify_all(Engine::Portfolio, options);
            (
                result.stats,
                prepared.stats,
                result.statuses.into_iter().enumerate().collect(),
            )
        }
    };
    Outcome {
        time: start.elapsed(),
        stats,
        latches_removed: prepared_stats.latches_removed(),
        ands_removed: prepared_stats.ands_removed(),
        statuses,
    }
}

/// The correctness gate's three references for one job: the expected
/// outcome, the first conclusive outcome any engine reported for the same
/// property (`consensus`), and the certificate checker.  Returns the
/// reasons the job failed, if any; an inconclusive verdict fails the
/// first.
fn check(
    design_index: usize,
    design: &Design,
    kind: JobKind,
    outcome: &Outcome,
    consensus: &mut Consensus,
    telemetry: &Telemetry,
) -> Vec<String> {
    let mut failures = Vec::new();
    let name = &design.name;
    for (property, status) in &outcome.statuses {
        let key = status.kind_and_depth();
        let expected = design.expect[*property].key();
        if key != expected {
            failures.push(format!(
                "{name} p{property} {}: got {status}, expected {expected:?}",
                kind.label()
            ));
        }
        if !status.is_conclusive() {
            continue;
        }
        let (agreed, by) = *consensus
            .entry((design_index, *property))
            .or_insert((key, kind));
        if key != agreed {
            failures.push(format!(
                "{name} p{property}: {} says {key:?}, {} said {agreed:?}",
                kind.label(),
                by.label()
            ));
        }
    }
    let _certify = telemetry.span("bench.certify");
    let records: Vec<CertRecord> = outcome
        .statuses
        .iter()
        .filter(|(_, status)| status.is_conclusive())
        .map(|(p, status)| CertRecord::from_status(*p, Some(kind.label()), status))
        .collect();
    let document = mc::certificate::document_json("design.aag", &records);
    match certify::parse_document(&document) {
        Err(e) => failures.push(format!(
            "{name} {}: certificate document: {e}",
            kind.label()
        )),
        Ok(doc) => {
            for entry in &doc.entries {
                match certify::check_entry(&design.aig, entry) {
                    certify::Outcome::Accepted => {}
                    certify::Outcome::Skipped(why) | certify::Outcome::Rejected(why) => failures
                        .push(format!(
                            "{name} p{} {}: certificate not accepted: {why}",
                            entry.property,
                            kind.label()
                        )),
                }
            }
        }
    }
    failures
}

/// The work counters that must repeat exactly for deterministic jobs.
fn work(stats: &EngineStats) -> [u64; 5] {
    [
        stats.sat_calls,
        stats.conflicts,
        stats.propagations,
        stats.clauses_encoded,
        stats.interpolants,
    ]
}

/// Nearest-rank percentile of a non-empty ascending sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU time the hypervisor gave to other guests so far, in clock ticks
/// summed over all CPUs (the `steal` column of `/proc/stat`); 0 where the
/// kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The checked-out commit, read from `.git` when the run happens in a
/// git checkout.
fn commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One timed pass: a set-up, then every job once, in order.
struct Pass {
    traced: bool,
    /// Seconds the pass's set-up took.
    setup: f64,
    /// Share of the machine's CPU time other guests took during the pass.
    steal: f64,
    outcomes: Vec<Outcome>,
    /// Per job: whether it failed a check.
    failed: Vec<bool>,
    layers: Vec<(&'static str, f64)>,
}

impl Pass {
    fn job_seconds(&self) -> f64 {
        self.outcomes.iter().map(|o| o.time.as_secs_f64()).sum()
    }
}

/// The passes the figures rest on: those the hypervisor left alone, or,
/// when fewer than [`MIN_KEPT`] were, the least disturbed ones.  A steal
/// burst slows every job in its window by the same factor, whatever the
/// code under test does, so it is noise to leave out, not a result.
fn quiet<'a>(passes: impl Iterator<Item = &'a Pass>) -> Vec<&'a Pass> {
    let mut passes: Vec<&Pass> = passes.collect();
    passes.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet = passes.iter().filter(|p| p.steal <= STEAL_LIMIT).count();
    passes.truncate(quiet.max(MIN_KEPT));
    passes
}

/// The end-to-end metrics of the quiet untraced passes, in
/// [`END_TO_END`] order.  `solved_frac` counts every timed pass.
fn end_to_end(
    untraced: &[&Pass],
    jobs: &[Job],
    attempted: u64,
    failed: u64,
) -> Vec<(&'static str, &'static str, f64)> {
    let budget_ms = TIMEOUT.as_secs_f64() * 1e3;
    let mut samples = Vec::new();
    let mut verdicts = 0u64;
    for pass in untraced {
        for (outcome, failed) in pass.outcomes.iter().zip(&pass.failed) {
            if *failed {
                samples.push(budget_ms);
            } else {
                samples.push(outcome.time.as_secs_f64() * 1e3);
                verdicts += outcome.statuses.len() as u64;
            }
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let job_seconds: f64 = untraced.iter().map(|p| p.job_seconds()).sum();
    let mut setups: Vec<f64> = untraced.iter().map(|p| p.setup).collect();
    let mut values: HashMap<&str, f64> = HashMap::new();
    values.insert("setup_s", median(&mut setups));
    values.insert("verdicts_per_s", verdicts as f64 / job_seconds);
    values.insert("verdict_ms_p50", percentile(&samples, 50.0));
    values.insert("verdict_ms_p90", percentile(&samples, 90.0));
    values.insert(
        "solved_frac",
        (attempted - failed) as f64 / attempted as f64,
    );
    values.insert("peak_rss_mb", peak_rss_mb());
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name.strip_prefix("engine_s.") {
                Some(label) => {
                    let mut per_pass: Vec<f64> = untraced
                        .iter()
                        .map(|p| {
                            jobs.iter()
                                .zip(&p.outcomes)
                                .filter(|(job, _)| job.kind.label() == label)
                                .map(|(_, o)| o.time.as_secs_f64())
                                .sum()
                        })
                        .collect();
                    median(&mut per_pass)
                }
                None => values[name],
            };
            (name, unit, value)
        })
        .collect()
}

/// The per-layer metrics, in [`layers::PER_LAYER`] order: the median over
/// the quiet traced passes of each per-pass figure, plus the run-level
/// ones.
fn per_layer(
    untraced: &[&Pass],
    traced: &[&Pass],
    coi_groups: f64,
    match_frac: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut plain: Vec<f64> = untraced.iter().map(|p| p.job_seconds()).collect();
    let mut with: Vec<f64> = traced.iter().map(|p| p.job_seconds()).collect();
    let mut run_level: HashMap<&str, f64> = HashMap::new();
    run_level.insert("multi.coi_groups", coi_groups);
    run_level.insert(
        "trace.overhead_frac",
        median(&mut with) / median(&mut plain) - 1.0,
    );
    run_level.insert("determinism.match_frac", match_frac);
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match run_level.get(name) {
                Some(v) => *v,
                None => {
                    let mut values: Vec<f64> = traced
                        .iter()
                        .map(|p| {
                            p.layers
                                .iter()
                                .find(|(n, _)| *n == name)
                                .map(|(_, v)| *v)
                                .expect("every per-pass metric is computed")
                        })
                        .collect();
                    median(&mut values)
                }
            };
            (name, unit, value)
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (slots, rejected) = designs::draw(&args.workload, args.seed).expect("workload checked");
    let options = Options::default()
        .with_timeout(TIMEOUT)
        .with_max_bound(MAX_BOUND);
    let sink = Arc::new(MemorySink::new());
    let traced_handle = Telemetry::new(sink.clone());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let aigs = setup(&slots, &Telemetry::off());

    // References that do not follow from the construction: exact BDD
    // reachability for the fixtures.
    let mut designs = Vec::new();
    for (slot, (name, aig)) in slots.iter().zip(aigs) {
        let expect = match slot.params.expected() {
            Some(expect) => expect,
            None => match bdd_expectation(&aig) {
                Ok(expect) => expect,
                Err(e) => {
                    eprintln!("perfbench: no reference for {name}: {e}");
                    std::process::exit(1);
                }
            },
        };
        assert_eq!(
            expect.len(),
            aig.num_bad(),
            "{name}: one expectation per property"
        );
        designs.push(Design { name, aig, expect });
    }
    let mut jobs = Vec::new();
    for (d, (slot, design)) in slots.iter().zip(&designs).enumerate() {
        for &engine in slot.engines {
            for property in 0..design.aig.num_bad() {
                jobs.push(Job {
                    design: d,
                    kind: JobKind::Single(engine),
                    property,
                });
            }
        }
        if slot.verify_all {
            jobs.push(Job {
                design: d,
                kind: JobKind::All,
                property: 0,
            });
        }
    }

    let mut consensus = HashMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut run_pass =
        |telemetry: &Telemetry, failures: &mut Vec<String>| -> Vec<(Outcome, bool)> {
            let options = options.clone().with_telemetry(telemetry.clone());
            jobs.iter()
                .map(|job| {
                    let design = &designs[job.design];
                    let outcome = run_job(design, *job, &options);
                    let found = check(
                        job.design,
                        design,
                        job.kind,
                        &outcome,
                        &mut consensus,
                        telemetry,
                    );
                    let failed = !found.is_empty();
                    failures.extend(found);
                    (outcome, failed)
                })
                .collect()
        };

    // Warm-up: untraced, checked, and the reference for the work counters.
    let warmup = run_pass(&Telemetry::off(), &mut failures);
    let warmup_failed = warmup.iter().filter(|(_, failed)| *failed).count();

    let mut passes: Vec<Pass> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let started = Instant::now();
    let min_passes = if args.trace { 2 } else { 1 };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        let telemetry = if traced {
            traced_handle.clone()
        } else {
            Telemetry::off()
        };
        let pass_start = Instant::now();
        let steal_before = steal_ticks();
        // The set-up is repeated once per pass, on designs identical to
        // the ones the jobs use, so `setup_s` rests on as many samples as
        // the job times and is spread over the same stretch of time.
        std::hint::black_box(setup(&slots, &telemetry));
        let setup_secs = pass_start.elapsed().as_secs_f64();
        let (outcomes, failed_jobs): (Vec<Outcome>, Vec<bool>) =
            run_pass(&telemetry, &mut failures).into_iter().unzip();
        let capacity = pass_start.elapsed().as_secs_f64() * TICKS_PER_SEC * nproc as f64;
        let steal = steal_ticks().saturating_sub(steal_before) as f64 / capacity;
        attempted += outcomes.len() as u64;
        failed += failed_jobs.iter().filter(|f| **f).count() as u64;
        let layers = if traced {
            let events = sink.take();
            let report = TraceReport::from_events(&events);
            let rows: Vec<(JobKind, usize, &Outcome)> = jobs
                .iter()
                .zip(&outcomes)
                .map(|(job, o)| (job.kind, designs[job.design].aig.num_bad(), o))
                .collect();
            layers::pass_metrics(&report, &events, &rows)
        } else {
            Vec::new()
        };
        passes.push(Pass {
            traced,
            setup: setup_secs,
            steal,
            outcomes,
            failed: failed_jobs,
            layers,
        });
    }

    // Work-counter determinism against the warm-up pass.
    let mut compared = 0u64;
    let mut matched = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (j, job) in jobs.iter().enumerate() {
        if !job.kind.deterministic() {
            continue;
        }
        let reference = work(&warmup[j].0.stats);
        for value in reference {
            digest = (digest ^ value).wrapping_mul(0x0100_0000_01b3);
        }
        for pass in &passes {
            compared += 1;
            if work(&pass.outcomes[j].stats) == reference {
                matched += 1;
            }
        }
    }
    let match_frac = if compared > 0 {
        matched as f64 / compared as f64
    } else {
        1.0
    };

    let untraced = quiet(passes.iter().filter(|p| !p.traced));
    let metrics = if args.trace {
        let traced = quiet(passes.iter().filter(|p| p.traced));
        let coi_groups = jobs
            .iter()
            .filter(|j| j.kind == JobKind::All)
            .map(|j| aig::coi::group_bads_by_coi(&designs[j.design].aig).len() as f64)
            .sum();
        per_layer(&untraced, &traced, coi_groups, match_frac)
    } else {
        end_to_end(&untraced, &jobs, attempted, failed)
    };

    // Run metadata, then the result line.
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for job in &jobs {
        match kinds.iter_mut().find(|(k, _)| *k == job.kind.label()) {
            Some(entry) => entry.1 += 1,
            None => kinds.push((job.kind.label(), 1)),
        }
    }
    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"bench\":\"itpseq-perfbench/v1\",\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{},\
         \"trace\":{},\"commit\":\"{}\",\"nproc\":{},\"options\":{{\"timeout_ms\":{},\"max_bound\":{},\
         \"threads\":{},\"effective_threads\":{},\"preprocess\":{},\"certificates\":{}}},\
         \"draw_rejections\":{},\"passes\":{},\"passes_used\":{},\"steal_share_max\":{},\"jobs_per_pass\":{},\
         \"jobs_per_pass_by_kind\":{{{}}},\"samples\":{},\"warmup_failed\":{},\
         \"determinism\":{{\"compared\":{},\"matched\":{},\"work_digest\":\"{:016x}\"}},\"designs\":[{}]}}",
        args.workload,
        args.seed,
        HELD_OUT_SEED,
        u8::from(args.trace),
        commit(),
        nproc,
        options.timeout.as_millis(),
        options.max_bound,
        options.threads,
        options.effective_threads(),
        options.preprocess.enabled(),
        options.certificates,
        rejected,
        passes.len(),
        untraced.len(),
        passes.iter().map(|p| p.steal).fold(0.0, f64::max),
        jobs.len(),
        kinds
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect::<Vec<_>>()
            .join(","),
        untraced.iter().map(|p| p.outcomes.len()).sum::<usize>(),
        warmup_failed,
        compared,
        matched,
        digest,
        slots
            .iter()
            .zip(&designs)
            .map(|(slot, d)| format!(
                "{{\"name\":\"{}\",\"params\":{},\"properties\":{}}}",
                d.name,
                slot.params.to_json(),
                d.aig.num_bad()
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    for failure in failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    for (name, unit, value) in &metrics {
        eprintln!("{name:28} {value:>14.4} {unit}");
    }
    let correct = failures.is_empty();
    println!("{meta}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
