//! Experiment harness shared by the figure/table regenerator binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section:
//!
//! * `fig6` — sorted run-time curves of the four engines over the suite,
//! * `table1` — the per-benchmark table with BDD diameters and
//!   `Time / k_fp / j_fp` per engine (now including the racing
//!   portfolio); `--suite` selects a benchmark subset and `--json`
//!   additionally emits the machine-readable records CI archives
//!   (schema `itpseq-table1/v7`, which adds the fixpoint-layer counters
//!   `fixpoint_checks`/`fixpoint_time_ms` on top of v6's fault-isolation
//!   counters),
//! * `fig7` — the exact-k versus assume-k scatter for ITPSEQ,
//! * `ablation_alpha` — the `αs` sweep for the serial sequences.
//!
//! The criterion benches under `benches/` add `fig_pdr` (PDR vs
//! ITPSEQCBA) and `fig_portfolio` (the portfolio against its own
//! entrants, plus sequential-vs-parallel PDR).
//!
//! Absolute run times obviously differ from the paper's 2011 hardware and
//! benchmark set; the *shapes* (which engine wins, where overflows appear,
//! how `k_fp`/`j_fp` relate) are the reproduction target.

use mc::{Engine, EngineResult, MultiResult, Options, PropertyStatus, StopReason, Verdict};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{MemorySink, Telemetry};
use workloads::Benchmark;

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Result of one engine on one benchmark.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine used.
    pub engine: Engine,
    /// Engine outcome and statistics.
    pub result: EngineResult,
}

impl RunRecord {
    /// Run time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.result.stats.time.as_secs_f64() * 1e3
    }

    /// Time spent building/extending CNF encodings, in milliseconds —
    /// the number the unrolling cache shrinks, reported separately so the
    /// perf-smoke artifacts make the speedup visible.
    pub fn encode_millis(&self) -> f64 {
        self.result.stats.encode_time.as_secs_f64() * 1e3
    }

    /// `k_fp` as reported in Table I (bound reached on overflow).
    pub fn k_fp(&self) -> usize {
        match &self.result.verdict {
            Verdict::Proved { k_fp, .. } => *k_fp,
            Verdict::Falsified { depth } => *depth,
            Verdict::Inconclusive { bound_reached, .. } => *bound_reached,
        }
    }

    /// `j_fp` as reported in Table I (0 on failure, `-` on overflow).
    pub fn j_fp(&self) -> Option<usize> {
        match &self.result.verdict {
            Verdict::Proved { j_fp, .. } => Some(*j_fp),
            Verdict::Falsified { .. } => Some(0),
            Verdict::Inconclusive { .. } => None,
        }
    }

    /// Learned clauses the run's SAT cores deleted (DB reductions plus
    /// retirement sweeps) — one of the schema-v3 solver counters.
    pub fn learned_deleted(&self) -> u64 {
        self.result.stats.learned_deleted
    }

    /// One flat JSON object per record, for the machine-readable artifact
    /// CI uploads next to the text table.
    pub fn to_json(&self) -> String {
        let (verdict, k_fp, j_fp, depth, bound, reason) = match &self.result.verdict {
            Verdict::Proved { k_fp, j_fp } => {
                ("proved", Some(*k_fp), Some(*j_fp), None, None, None)
            }
            Verdict::Falsified { depth } => ("falsified", None, None, Some(*depth), None, None),
            Verdict::Inconclusive {
                bound_reached,
                reason,
            } => (
                "inconclusive",
                None,
                None,
                None,
                Some(*bound_reached),
                Some(reason.to_string()),
            ),
        };
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let opt_str =
            |v: Option<&str>| v.map_or("null".to_string(), |s| format!("\"{}\"", json_escape(s)));
        format!(
            concat!(
                r#"{{"benchmark":"{}","engine":"{}","verdict":"{}","time_ms":{:.3},"#,
                r#""encode_time_ms":{:.3},"k_fp":{},"j_fp":{},"depth":{},"bound_reached":{},"#,
                r#""reason":{},"sat_calls":{},"conflicts":{},"decisions":{},"#,
                r#""propagations":{},"restarts":{},"clauses_encoded":{},"#,
                r#""learned_deleted":{},"minimized_literals":{},"db_reductions":{},"#,
                r#""preprocess_time_ms":{:.3},"ands_removed":{},"latches_removed":{},"#,
                r#""inputs_removed":{},"cert_clauses_subsumed":{},"#,
                r#""panics_contained":{},"memlimit_hits":{},"faults_injected":{},"#,
                r#""pool_seq_reruns":{},"fixpoint_checks":{},"fixpoint_time_ms":{:.3},"#,
                r#""winner":{}}}"#
            ),
            json_escape(&self.benchmark),
            self.engine.name(),
            verdict,
            self.millis(),
            self.encode_millis(),
            opt(k_fp),
            opt(j_fp),
            opt(depth),
            opt(bound),
            opt_str(reason.as_deref()),
            self.result.stats.sat_calls,
            self.result.stats.conflicts,
            self.result.stats.decisions,
            self.result.stats.propagations,
            self.result.stats.restarts,
            self.result.stats.clauses_encoded,
            self.result.stats.learned_deleted,
            self.result.stats.minimized_literals,
            self.result.stats.db_reductions,
            self.result.stats.preprocess_time.as_secs_f64() * 1e3,
            self.result.stats.ands_removed,
            self.result.stats.latches_removed,
            self.result.stats.inputs_removed,
            self.result.stats.cert_clauses_subsumed,
            self.result.stats.panics_contained,
            self.result.stats.memlimit_hits,
            self.result.stats.faults_injected,
            self.result.stats.pool_seq_reruns,
            self.result.stats.fixpoint_checks,
            self.result.stats.fixpoint_time.as_secs_f64() * 1e3,
            opt_str(self.result.stats.winner),
        )
    }

    /// Table-friendly rendering of the verdict cells.
    pub fn cells(&self) -> (String, String, String) {
        match &self.result.verdict {
            Verdict::Proved { k_fp, j_fp } => (
                format!("{:.0}", self.millis()),
                k_fp.to_string(),
                j_fp.to_string(),
            ),
            Verdict::Falsified { depth } => (
                format!("{:.0}", self.millis()),
                depth.to_string(),
                "0".to_string(),
            ),
            Verdict::Inconclusive {
                bound_reached,
                reason,
            } => (
                short_reason(reason).to_string(),
                format!("({bound_reached})"),
                "-".to_string(),
            ),
        }
    }
}

/// Table-cell code for an inconclusive run's reason: `t/o` (wall-clock
/// budget), `ovf` (bound exhausted), `cxl` (cancelled or retired, e.g. a
/// portfolio loser), `mem` (memory budget), `pnc` (a contained panic),
/// `inc` for anything else (e.g. an interpolation failure).
pub fn short_reason(reason: &StopReason) -> &'static str {
    match reason {
        StopReason::Timeout => "t/o",
        StopReason::BoundExhausted => "ovf",
        StopReason::Cancelled | StopReason::Retired => "cxl",
        StopReason::MemLimit => "mem",
        StopReason::Panic(_) => "pnc",
        StopReason::Other(_) => "inc",
    }
}

/// One design's outcome in an HWMCC-style directory run: the parsed
/// design's shape, `verify_all`'s per-property statuses — or the parse
/// error that kept the design out of the run.
#[derive(Clone, Debug)]
pub struct HwmccRecord {
    /// File name within the benchmark directory (e.g. `counter.aag`).
    pub file: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of latches.
    pub latches: usize,
    /// Number of AND gates.
    pub ands: usize,
    /// Whether the properties came from the pre-AIGER-1.9 fallback
    /// (outputs promoted to bad-state literals because `B` was absent).
    pub promoted_outputs: bool,
    /// The multi-property result, or `Err(message)` when the file did not
    /// parse.
    pub result: Result<MultiResult, String>,
    /// Per-pass preprocessing reduction statistics, when the runner's
    /// staged pipeline preprocessed the design (`None` with preprocessing
    /// off or on a parse error).
    pub preprocess: Option<aig::passes::PipelineStats>,
}

impl HwmccRecord {
    /// Renders the preprocessing pipeline statistics as a JSON object
    /// (`null` when the design was not preprocessed).
    fn preprocess_json(&self) -> String {
        let Some(stats) = &self.preprocess else {
            return "null".to_string();
        };
        let passes: Vec<String> = stats
            .passes
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        r#"{{"pass":"{}","ands_removed":{},"latches_removed":{},"#,
                        r#""inputs_removed":{}}}"#
                    ),
                    p.pass.name(),
                    p.ands_removed,
                    p.latches_removed,
                    p.inputs_removed,
                )
            })
            .collect();
        format!(
            concat!(
                r#"{{"ands_removed":{},"latches_removed":{},"inputs_removed":{},"#,
                r#""final_ands":{},"final_latches":{},"final_inputs":{},"passes":[{}]}}"#
            ),
            stats.ands_removed(),
            stats.latches_removed(),
            stats.inputs_removed(),
            stats.final_ands,
            stats.final_latches,
            stats.final_inputs,
            passes.join(","),
        )
    }

    /// Renders one property's status as a flat JSON object.
    fn property_json(index: usize, status: &PropertyStatus) -> String {
        let (kind, depth, k_fp, j_fp, bound, reason, has_cex) = match status {
            PropertyStatus::Proved { k_fp, j_fp, .. } => {
                ("proved", None, Some(*k_fp), Some(*j_fp), None, None, false)
            }
            PropertyStatus::Falsified { depth, cex } => (
                "falsified",
                Some(*depth),
                None,
                None,
                None,
                None,
                cex.is_some(),
            ),
            PropertyStatus::Inconclusive {
                reason,
                bound_reached,
            } => (
                "inconclusive",
                None,
                None,
                None,
                Some(*bound_reached),
                Some(reason.to_string()),
                false,
            ),
        };
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let opt_str =
            |v: Option<&str>| v.map_or("null".to_string(), |s| format!("\"{}\"", json_escape(s)));
        format!(
            concat!(
                r#"{{"index":{},"status":"{}","depth":{},"k_fp":{},"j_fp":{},"#,
                r#""bound_reached":{},"reason":{},"has_cex":{}}}"#
            ),
            index,
            kind,
            opt(depth),
            opt(k_fp),
            opt(j_fp),
            opt(bound),
            opt_str(reason.as_deref()),
            has_cex,
        )
    }

    /// One flat JSON object per design, properties nested.
    pub fn to_json(&self) -> String {
        match &self.result {
            Ok(result) => {
                let properties: Vec<String> = result
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(index, status)| Self::property_json(index, status))
                    .collect();
                format!(
                    concat!(
                        r#"{{"file":"{}","inputs":{},"latches":{},"ands":{},"#,
                        r#""promoted_outputs":{},"time_ms":{:.3},"sat_calls":{},"#,
                        r#""conflicts":{},"clauses_encoded":{},"preprocess":{},"#,
                        r#""properties":[{}]}}"#
                    ),
                    json_escape(&self.file),
                    self.inputs,
                    self.latches,
                    self.ands,
                    self.promoted_outputs,
                    result.stats.time.as_secs_f64() * 1e3,
                    result.stats.sat_calls,
                    result.stats.conflicts,
                    result.stats.clauses_encoded,
                    self.preprocess_json(),
                    properties.join(","),
                )
            }
            Err(message) => format!(
                r#"{{"file":"{}","error":"{}"}}"#,
                json_escape(&self.file),
                json_escape(message),
            ),
        }
    }
}

/// Renders an HWMCC directory run as the machine-readable JSON document
/// (schema `itpseq-hwmcc/v2`, which adds the per-design `preprocess`
/// reduction report to v1) the `hwmcc` binary writes and CI archives.
pub fn hwmcc_records_to_json(engine: Engine, records: &[HwmccRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|record| format!("    {}", record.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"itpseq-hwmcc/v2\",\n  \"engine\": \"{}\",\n  \"designs\": [\n{}\n  ]\n}}\n",
        engine.name(),
        body.join(",\n")
    )
}

/// The output files a [`TraceCapture`] writes at exit, one per flag of
/// the experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct TracePaths {
    /// `--trace`: the raw `itpseq-trace/v1` JSONL stream.
    pub jsonl: Option<String>,
    /// `--chrome-trace`: a Chrome trace-event file (loadable in
    /// Perfetto / `chrome://tracing`).
    pub chrome: Option<String>,
    /// `--report`: the `itpseq-report/v1` span-tree analysis (span
    /// aggregates, counter rates, portfolio wasted work).
    pub report: Option<String>,
    /// `--folded`: inferno-compatible collapsed stacks for flamegraphs.
    pub folded: Option<String>,
}

impl TracePaths {
    fn any(&self) -> bool {
        self.jsonl.is_some()
            || self.chrome.is_some()
            || self.report.is_some()
            || self.folded.is_some()
    }
}

/// Telemetry capture behind the binaries' `--trace`/`--chrome-trace`/
/// `--report`/`--folded` flags: events from every run accumulate in one
/// in-memory sink and are written out once at exit in each requested
/// form.
pub struct TraceCapture {
    sink: Arc<MemorySink>,
    paths: TracePaths,
}

impl TraceCapture {
    /// A capture for the requested output paths; `None` when no tracing
    /// output was requested (so the no-op telemetry handle stays in
    /// place).
    pub fn new(paths: TracePaths) -> Option<TraceCapture> {
        if !paths.any() {
            return None;
        }
        Some(TraceCapture {
            sink: Arc::new(MemorySink::new()),
            paths,
        })
    }

    /// The recording telemetry handle to install via
    /// [`Options::with_telemetry`].
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::new(self.sink.clone())
    }

    /// Writes the requested trace files.  On failure the returned message
    /// names the path that could not be written — the binaries report it
    /// to stderr and exit nonzero instead of panicking.
    pub fn write(&self) -> Result<(), String> {
        let events = self.sink.snapshot();
        if let Some(path) = &self.paths.jsonl {
            let mut out = Vec::new();
            telemetry::write_jsonl(&events, &mut out)
                .map_err(|e| format!("cannot encode trace for {path}: {e}"))?;
            std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} trace events to {path}", events.len());
        }
        if let Some(path) = &self.paths.chrome {
            let mut out = Vec::new();
            telemetry::write_chrome_trace(&events, &mut out)
                .map_err(|e| format!("cannot encode trace for {path}: {e}"))?;
            std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote Chrome trace ({} events) to {path}", events.len());
        }
        if self.paths.report.is_some() || self.paths.folded.is_some() {
            let report = telemetry::report::TraceReport::from_events(&events);
            if let Some(path) = &self.paths.report {
                // The baseline comparison is `trace-report --baseline`'s
                // job; the inline report documents the run itself.
                std::fs::write(path, report.to_json(None))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "wrote span report ({} span aggregates) to {path}",
                    report.spans.len()
                );
            }
            if let Some(path) = &self.paths.folded {
                let mut out = Vec::new();
                telemetry::folded::write_folded(&events, &mut out)
                    .map_err(|e| format!("cannot encode folded stacks for {path}: {e}"))?;
                std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote folded stacks to {path}");
            }
        }
        Ok(())
    }
}

/// Installs a capture's recording handle on `options` (the identity when
/// tracing was not requested).
pub fn with_capture(options: Options, capture: Option<&TraceCapture>) -> Options {
    match capture {
        Some(capture) => options.with_telemetry(capture.telemetry()),
        None => options,
    }
}

/// Runs one engine on one benchmark with the given per-instance budget,
/// through the staged pipeline: preprocess the design, solve on the
/// reduced model, reconstruct verdict/certificate back to the original
/// (equivalent to [`Engine::verify`], spelled out stage by stage).
pub fn run_engine(benchmark: &Benchmark, engine: Engine, options: &Options) -> RunRecord {
    let result = if options.preprocess.enabled() {
        mc::prepare_property(&benchmark.aig, 0, options).verify(engine, 0, options)
    } else {
        engine.verify(&benchmark.aig, 0, options)
    };
    RunRecord {
        benchmark: benchmark.name.clone(),
        engine,
        result,
    }
}

/// The per-instance options used by the experiment binaries: a small time
/// budget per run (scaled-down analogue of the paper's 1800 s limit) and a
/// generous bound.
pub fn experiment_options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(5))
        .with_max_bound(40)
}

/// Renders a batch of records as the machine-readable JSON document CI
/// uploads as a build artifact.
pub fn records_to_json(records: &[RunRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|record| format!("    {}", record.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"itpseq-table1/v7\",\n  \"records\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

/// The perf-smoke selection: the fastest mid-size instances, small enough
/// for CI to rerun on every push and still produce comparable curves.
pub fn smoke_suite() -> Vec<Benchmark> {
    workloads::suite::mid_size()
        .into_iter()
        .filter(|b| b.aig.num_latches() <= 8)
        .collect()
}

/// Resolves the benchmark selections the experiment binaries accept with
/// `--suite`: `full`, `mid`, `industrial` or `smoke`.
pub fn suite_by_name(name: &str) -> Option<Vec<Benchmark>> {
    match name {
        "full" => Some(workloads::suite::full()),
        "mid" => Some(workloads::suite::mid_size()),
        "industrial" => Some(workloads::suite::industrial()),
        "smoke" => Some(smoke_suite()),
        _ => None,
    }
}

/// Sanitizes a benchmark name into a file stem for certificate bundles.
pub fn cert_file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one design's certificate bundle into `dir`: the design as
/// `<stem>.aag` next to its `itpseq-cert/v1` document `<stem>.certs.json`.
/// The independent checker (`cargo run --bin certify`) re-parses the
/// `.aag` rather than trusting any in-memory state, so the design written
/// here must be exactly the one the engines ran on (for the hwmcc runner
/// that means *after* output promotion).
pub fn write_cert_bundle(
    dir: &std::path::Path,
    stem: &str,
    aig: &aig::Aig,
    records: &[mc::CertRecord],
) -> std::io::Result<()> {
    let design_file = format!("{stem}.aag");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(&design_file), aig::to_aag(aig))?;
    std::fs::write(
        dir.join(format!("{stem}.certs.json")),
        mc::certificate::document_json(&design_file, records),
    )?;
    Ok(())
}

/// Formats a monotone (sorted) run-time curve like Fig. 6: the i-th value
/// is the i-th smallest solved-instance time; unsolved instances are
/// reported as the timeout value.
pub fn sorted_curve(records: &[RunRecord], timeout: Duration) -> Vec<f64> {
    let mut times: Vec<f64> = records
        .iter()
        .map(|r| {
            if r.result.verdict.is_conclusive() {
                r.millis()
            } else {
                timeout.as_secs_f64() * 1e3
            }
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_cells_render_all_verdicts() {
        let suite = workloads::suite::mid_size();
        let options = Options::default()
            .with_timeout(Duration::from_secs(2))
            .with_max_bound(20);
        let record = run_engine(&suite[0], Engine::ItpSeq, &options);
        let (time, k, j) = record.cells();
        assert!(!time.is_empty() && !k.is_empty() && !j.is_empty());
    }

    #[test]
    fn json_records_cover_all_verdict_shapes() {
        let mk = |verdict: Verdict| RunRecord {
            benchmark: "counter \"quoted\"".to_string(),
            engine: Engine::Portfolio,
            result: mc::EngineResult {
                verdict,
                stats: mc::EngineStats {
                    sat_calls: 3,
                    decisions: 11,
                    propagations: 13,
                    restarts: 4,
                    learned_deleted: 7,
                    minimized_literals: 9,
                    db_reductions: 2,
                    winner: Some("PDR"),
                    ands_removed: 5,
                    latches_removed: 2,
                    inputs_removed: 1,
                    cert_clauses_subsumed: 1,
                    panics_contained: 1,
                    memlimit_hits: 2,
                    faults_injected: 3,
                    pool_seq_reruns: 4,
                    fixpoint_checks: 6,
                    ..Default::default()
                },
                certificate: None,
            },
        };
        let proved = mk(Verdict::Proved { k_fp: 4, j_fp: 2 }).to_json();
        assert!(proved.contains(r#""verdict":"proved""#), "{proved}");
        assert!(proved.contains(r#""k_fp":4"#), "{proved}");
        assert!(proved.contains(r#""winner":"PDR""#), "{proved}");
        assert!(proved.contains(r#"counter \"quoted\""#), "{proved}");
        assert!(proved.contains(r#""encode_time_ms":"#), "{proved}");
        assert!(proved.contains(r#""clauses_encoded":0"#), "{proved}");
        assert!(proved.contains(r#""learned_deleted":7"#), "{proved}");
        assert!(proved.contains(r#""minimized_literals":9"#), "{proved}");
        assert!(proved.contains(r#""db_reductions":2"#), "{proved}");
        assert!(proved.contains(r#""decisions":11"#), "{proved}");
        assert!(proved.contains(r#""propagations":13"#), "{proved}");
        assert!(proved.contains(r#""restarts":4"#), "{proved}");
        assert!(proved.contains(r#""preprocess_time_ms":"#), "{proved}");
        assert!(proved.contains(r#""ands_removed":5"#), "{proved}");
        assert!(proved.contains(r#""latches_removed":2"#), "{proved}");
        assert!(proved.contains(r#""inputs_removed":1"#), "{proved}");
        assert!(proved.contains(r#""cert_clauses_subsumed":1"#), "{proved}");
        assert!(proved.contains(r#""panics_contained":1"#), "{proved}");
        assert!(proved.contains(r#""memlimit_hits":2"#), "{proved}");
        assert!(proved.contains(r#""faults_injected":3"#), "{proved}");
        assert!(proved.contains(r#""pool_seq_reruns":4"#), "{proved}");
        assert!(proved.contains(r#""fixpoint_checks":6"#), "{proved}");
        assert!(proved.contains(r#""fixpoint_time_ms":"#), "{proved}");
        let falsified = mk(Verdict::Falsified { depth: 7 }).to_json();
        assert!(falsified.contains(r#""depth":7"#), "{falsified}");
        assert!(falsified.contains(r#""k_fp":null"#), "{falsified}");
        let inconclusive = mk(Verdict::Inconclusive {
            reason: StopReason::Timeout,
            bound_reached: 9,
        })
        .to_json();
        assert!(
            inconclusive.contains(r#""bound_reached":9"#),
            "{inconclusive}"
        );
        assert!(
            inconclusive.contains(r#""reason":"timeout""#),
            "{inconclusive}"
        );
        let panicked = mk(Verdict::Inconclusive {
            reason: StopReason::Panic("index out of \"bounds\"".to_string()),
            bound_reached: 0,
        })
        .to_json();
        assert!(
            panicked.contains(r#""reason":"panic:index out of \"bounds\"""#),
            "{panicked}"
        );
        assert!(proved.contains(r#""reason":null"#), "{proved}");
        let document = records_to_json(&[
            mk(Verdict::Proved { k_fp: 1, j_fp: 1 }),
            mk(Verdict::Falsified { depth: 2 }),
        ]);
        assert!(document.contains("itpseq-table1/v7"));
        assert_eq!(document.matches("\"benchmark\"").count(), 2);
        let opens = document.matches('{').count();
        assert_eq!(opens, document.matches('}').count());
    }

    #[test]
    fn hwmcc_json_covers_all_status_shapes() {
        let ok = HwmccRecord {
            file: "counter.aag".to_string(),
            inputs: 1,
            latches: 4,
            ands: 9,
            promoted_outputs: true,
            result: Ok(MultiResult {
                statuses: vec![
                    PropertyStatus::Proved {
                        k_fp: 3,
                        j_fp: 2,
                        cert: None,
                    },
                    PropertyStatus::Falsified {
                        depth: 5,
                        cex: Some(vec![vec![true]; 6]),
                    },
                    PropertyStatus::Inconclusive {
                        reason: StopReason::BoundExhausted,
                        bound_reached: 40,
                    },
                ],
                stats: mc::EngineStats {
                    sat_calls: 12,
                    ..Default::default()
                },
            }),
            preprocess: Some(aig::passes::PipelineStats {
                passes: vec![aig::passes::PassStats {
                    pass: aig::passes::PassKind::Coi,
                    ands_removed: 3,
                    latches_removed: 2,
                    inputs_removed: 0,
                }],
                orig_ands: 12,
                orig_latches: 6,
                orig_inputs: 1,
                final_ands: 9,
                final_latches: 4,
                final_inputs: 1,
            }),
        };
        let broken = HwmccRecord {
            file: "broken \"quoted\".aag".to_string(),
            inputs: 0,
            latches: 0,
            ands: 0,
            promoted_outputs: false,
            result: Err("invalid aag header: nope".to_string()),
            preprocess: None,
        };
        let document = hwmcc_records_to_json(Engine::Portfolio, &[ok, broken]);
        assert!(
            document.contains(r#""schema": "itpseq-hwmcc/v2""#),
            "{document}"
        );
        assert!(
            document.contains(r#""preprocess":{"ands_removed":3,"latches_removed":2"#),
            "{document}"
        );
        assert!(document.contains(r#""pass":"coi""#), "{document}");
        assert!(document.contains(r#""engine": "PORTFOLIO""#));
        assert!(document.contains(r#""status":"proved""#));
        assert!(document.contains(r#""status":"falsified""#));
        assert!(document.contains(r#""depth":5"#));
        assert!(document.contains(r#""has_cex":true"#));
        assert!(document.contains(r#""reason":"bound exhausted""#));
        assert!(document.contains(r#""promoted_outputs":true"#));
        assert!(document.contains(r#""error":"invalid aag header: nope""#));
        assert!(document.contains(r#"broken \"quoted\".aag"#));
        assert_eq!(document.matches('{').count(), document.matches('}').count());
    }

    #[test]
    fn inconclusive_cells_surface_the_reason() {
        let mk = |reason: StopReason| RunRecord {
            benchmark: "b".to_string(),
            engine: Engine::Bmc,
            result: mc::EngineResult {
                verdict: Verdict::Inconclusive {
                    reason,
                    bound_reached: 9,
                },
                stats: Default::default(),
                certificate: None,
            },
        };
        assert_eq!(mk(StopReason::Timeout).cells().0, "t/o");
        assert_eq!(mk(StopReason::BoundExhausted).cells().0, "ovf");
        assert_eq!(mk(StopReason::Cancelled).cells().0, "cxl");
        assert_eq!(mk(StopReason::Retired).cells().0, "cxl");
        assert_eq!(mk(StopReason::MemLimit).cells().0, "mem");
        assert_eq!(mk(StopReason::panic("boom")).cells().0, "pnc");
        assert_eq!(
            mk(StopReason::other("interpolation failed")).cells().0,
            "inc"
        );
        assert_eq!(mk(StopReason::Timeout).cells().1, "(9)");
    }

    #[test]
    fn trace_capture_records_and_exports() {
        assert!(TraceCapture::new(TracePaths::default()).is_none());
        let dir = std::env::temp_dir().join("itpseq-bench-trace-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let jsonl = dir.join("t.jsonl").to_string_lossy().into_owned();
        let chrome = dir.join("t.json").to_string_lossy().into_owned();
        let report = dir.join("t.report.json").to_string_lossy().into_owned();
        let folded = dir.join("t.folded").to_string_lossy().into_owned();
        let capture = TraceCapture::new(TracePaths {
            jsonl: Some(jsonl.clone()),
            chrome: Some(chrome.clone()),
            report: Some(report.clone()),
            folded: Some(folded.clone()),
        })
        .expect("capture");
        let suite = workloads::suite::mid_size();
        let options = with_capture(
            Options::default()
                .with_timeout(Duration::from_secs(2))
                .with_max_bound(20),
            Some(&capture),
        );
        let record = run_engine(&suite[0], Engine::ItpSeq, &options);
        assert!(record.result.verdict.is_conclusive());
        capture.write().expect("trace written");
        let trace = std::fs::read_to_string(&jsonl).expect("jsonl written");
        assert!(
            trace.starts_with(r#"{"schema":"itpseq-trace/v1"}"#),
            "{trace}"
        );
        assert!(trace.contains(r#""name":"ITPSEQ.run""#), "{trace}");
        let chrome_doc = std::fs::read_to_string(&chrome).expect("chrome written");
        assert!(chrome_doc.contains(r#""traceEvents""#), "{chrome_doc}");
        // The report written at exit matches a trace-report run over the
        // recorded JSONL exactly (same events, same aggregates).
        let report_doc = std::fs::read_to_string(&report).expect("report written");
        assert!(
            report_doc.contains(r#""schema": "itpseq-report/v1""#),
            "{report_doc}"
        );
        assert!(
            report_doc.contains(r#""name":"ITPSEQ.run""#),
            "{report_doc}"
        );
        assert!(report_doc.contains(r#""baseline": null"#), "{report_doc}");
        let from_jsonl = telemetry::report::TraceReport::from_jsonl(&trace).expect("parses");
        assert_eq!(report_doc, from_jsonl.to_json(None));
        let folded_doc = std::fs::read_to_string(&folded).expect("folded written");
        assert!(folded_doc.contains("main;ITPSEQ.run"), "{folded_doc}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_names_resolve() {
        assert!(suite_by_name("bogus").is_none());
        for name in ["full", "mid", "industrial", "smoke"] {
            let suite = suite_by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert!(!suite.is_empty(), "{name} must not be empty");
        }
        let smoke = smoke_suite();
        assert!(smoke.len() < workloads::suite::full().len());
        assert!(smoke.iter().all(|b| b.aig.num_latches() <= 8));
    }

    #[test]
    fn sorted_curve_is_monotone() {
        let suite: Vec<workloads::Benchmark> =
            workloads::suite::mid_size().into_iter().take(4).collect();
        let options = Options::default()
            .with_timeout(Duration::from_secs(2))
            .with_max_bound(20);
        let records: Vec<RunRecord> = suite
            .iter()
            .map(|b| run_engine(b, Engine::SerialItpSeq, &options))
            .collect();
        let curve = sorted_curve(&records, options.timeout);
        assert_eq!(curve.len(), 4);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
    }
}
