//! End-to-end proof-certificate round-trips: every conclusive verdict
//! from every engine must serialize to an `itpseq-cert/v1` document that
//! the independent checker (`crates/certify`, no engine code on its
//! trust path) accepts after re-parsing both the JSON and the `.aag`
//! design from text — and corrupted certificates must be rejected.

use certify::{check_entry, parse_document, Cert, CertEntry, Outcome};
use itpseq::aig::{self, Aig};
use itpseq::mc::{certificate::document_json, CertRecord, Engine, Options, Verdict};
use std::time::Duration;

fn options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(10))
        .with_max_bound(40)
}

/// Small designs so all seven engines stay fast.
fn small_designs() -> Vec<itpseq::workloads::Benchmark> {
    itpseq::workloads::suite::mid_size()
        .into_iter()
        .filter(|b| b.aig.num_latches() <= 8)
        .collect()
}

/// Serializes `records` against `aig`, then re-parses both the JSON
/// document and the AIGER text — the exact path the CLI checker takes —
/// and checks every entry.
fn round_trip(name: &str, aig: &Aig, records: &[CertRecord]) -> Vec<(CertEntry, Outcome)> {
    let document = document_json(&format!("{name}.aag"), records);
    let parsed = parse_document(&document).unwrap_or_else(|e| panic!("{name}: {e}"));
    let design = aig::parse_aag(&aig::to_aag(aig)).expect("emitted design must re-parse");
    parsed
        .entries
        .into_iter()
        .map(|entry| {
            let outcome = check_entry(&design, &entry);
            (entry, outcome)
        })
        .collect()
}

#[test]
fn every_engine_round_trips_checker_accepted_certificates() {
    let options = options();
    for benchmark in small_designs() {
        for engine in Engine::ALL {
            let result = engine.verify(&benchmark.aig, 0, &options);
            let conclusive = !matches!(result.verdict, Verdict::Inconclusive { .. });
            let records = [CertRecord::from_result(0, Some(engine.name()), &result)];
            for (entry, outcome) in round_trip(&benchmark.name, &benchmark.aig, &records) {
                if conclusive {
                    assert_eq!(
                        outcome,
                        Outcome::Accepted,
                        "{} via {} ({}): certificate must be accepted",
                        benchmark.name,
                        engine.name(),
                        entry.verdict
                    );
                } else {
                    assert!(
                        matches!(outcome, Outcome::Skipped(_)),
                        "{} via {}: inconclusive entries carry nothing to check",
                        benchmark.name,
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn verify_all_certificates_check_out_per_property() {
    let options = options();
    for file in ["counter_multi.aag", "arbiter_multi.aag"] {
        let text = std::fs::read_to_string(format!("tests/data/{file}")).unwrap();
        let mut aig = aig::parse_aag(&text).unwrap();
        aig.promote_outputs_to_bad();
        for engine in [Engine::Pdr, Engine::Bmc, Engine::Portfolio] {
            let result = engine.verify_all(&aig, &options);
            let records: Vec<CertRecord> = result
                .statuses
                .iter()
                .enumerate()
                .map(|(i, status)| CertRecord::from_status(i, Some(engine.name()), status))
                .collect();
            for (entry, outcome) in round_trip(file, &aig, &records) {
                match entry.verdict.as_str() {
                    "proved" | "falsified" => assert_eq!(
                        outcome,
                        Outcome::Accepted,
                        "{file} p{} via {} ({})",
                        entry.property,
                        engine.name(),
                        entry.verdict
                    ),
                    _ => assert!(matches!(outcome, Outcome::Skipped(_))),
                }
            }
        }
    }
}

/// A latch fed straight from the primary input, `bad = latch`: the only
/// depth-1 counterexample drives the input high at cycle 0, so flipping
/// that one bit must invalidate the trace.
fn input_driven() -> Aig {
    let mut aig = Aig::new();
    let input = aig::Lit::positive(aig.add_input());
    let latch = aig.add_latch(false);
    aig.set_next(latch, input);
    let bad = aig.latch_lit(latch);
    aig.add_bad(bad);
    aig
}

#[test]
fn corrupting_one_input_bit_is_rejected() {
    let aig = input_driven();
    let result = Engine::Bmc.verify(&aig, 0, &options());
    assert_eq!(result.verdict, Verdict::Falsified { depth: 1 });
    let records = [CertRecord::from_result(0, Some("BMC"), &result)];
    let mut entries = round_trip("input_driven", &aig, &records);
    let (mut entry, outcome) = entries.pop().unwrap();
    assert_eq!(outcome, Outcome::Accepted);

    let Some(Cert::Trace(inputs)) = &mut entry.certificate else {
        panic!("falsified entry must carry a trace");
    };
    inputs[0][0] = !inputs[0][0];
    let design = aig::parse_aag(&aig::to_aag(&aig)).unwrap();
    assert!(
        matches!(check_entry(&design, &entry), Outcome::Rejected(_)),
        "a flipped input bit must be caught by replay"
    );
}

#[test]
fn corrupting_one_invariant_clause_is_rejected() {
    // The mod-6 counter with unreachable bad state 7, proved by PDR.
    let text = std::fs::read_to_string("tests/data/counter_multi.aag").unwrap();
    let mut aig = aig::parse_aag(&text).unwrap();
    aig.promote_outputs_to_bad();
    let proved = (0..aig.num_bad())
        .map(|p| (p, Engine::Pdr.verify(&aig, p, &options())))
        .find(|(_, r)| matches!(r.verdict, Verdict::Proved { .. }))
        .expect("the fixture has a provable property");
    let (property, result) = proved;
    let records = [CertRecord::from_result(property, Some("PDR"), &result)];
    let (entry, outcome) = round_trip("counter_multi", &aig, &records).pop().unwrap();
    assert_eq!(outcome, Outcome::Accepted);

    let Some(Cert::Invariant {
        num_latches,
        clauses,
        cone,
    }) = entry.certificate.clone()
    else {
        panic!("proved entry must carry an invariant");
    };
    let design = aig::parse_aag(&aig::to_aag(&aig)).unwrap();
    let corrupt = |clauses: Vec<Vec<(usize, bool)>>| CertEntry {
        certificate: Some(Cert::Invariant {
            num_latches,
            clauses,
            cone: cone.clone(),
        }),
        ..entry.clone()
    };

    // Emptying one clause makes the invariant the constant FALSE — the
    // reset state no longer satisfies it, so initiation must fail.
    let mut emptied = clauses.clone();
    emptied[0].clear();
    let Outcome::Rejected(reason) = check_entry(&design, &corrupt(emptied)) else {
        panic!("an emptied clause must be rejected");
    };
    assert!(reason.contains("initiation"), "{reason}");

    // Flipping one literal's phase turns a lemma into a clause that some
    // reachable state violates: one of the three queries must fail.
    let mut flipped = clauses.clone();
    let (latch, phase) = flipped[0][0];
    flipped[0][0] = (latch, !phase);
    assert!(
        matches!(
            check_entry(&design, &corrupt(flipped)),
            Outcome::Rejected(_)
        ),
        "a flipped clause literal must be rejected"
    );
}

/// A verdict without its engine-specific payload (`k_fp`/`j_fp`).
fn kind_and_depth(verdict: &Verdict) -> (&'static str, Option<usize>) {
    match verdict {
        Verdict::Proved { .. } => ("proved", None),
        Verdict::Falsified { depth } => ("falsified", Some(*depth)),
        Verdict::Inconclusive { .. } => ("inconclusive", None),
    }
}

#[test]
fn certification_changes_no_verdicts() {
    // The A/B acceptance gate: `Options::certificates` may only control
    // whether evidence is attached, never what the engines conclude.
    let on = options();
    let off = options().with_certificates(false);
    for benchmark in small_designs() {
        for engine in Engine::ALL {
            let with = engine.verify(&benchmark.aig, 0, &on);
            let without = engine.verify(&benchmark.aig, 0, &off);
            if engine == Engine::Portfolio {
                // The portfolio promises the verdict kind and depth only:
                // `k_fp`/`j_fp` belong to whichever entrant wins the race.
                // Each run's payload must still be exactly its winner's.
                assert_eq!(
                    kind_and_depth(&with.verdict),
                    kind_and_depth(&without.verdict),
                    "{} via PORTFOLIO: certificates flipped the verdict",
                    benchmark.name
                );
                for (result, options) in [(&with, &on), (&without, &off)] {
                    let winner = result.stats.winner.expect("portfolio tags its winner");
                    let solo = Engine::ALL
                        .into_iter()
                        .find(|e| e.name() == winner)
                        .expect("the winner is an engine")
                        .verify(&benchmark.aig, 0, options);
                    assert_eq!(
                        result.verdict, solo.verdict,
                        "{} via PORTFOLIO: payload differs from its winner {winner}'s solo run",
                        benchmark.name
                    );
                }
            } else {
                assert_eq!(
                    with.verdict,
                    without.verdict,
                    "{} via {}: certificates flipped the verdict",
                    benchmark.name,
                    engine.name()
                );
            }
            assert!(
                without.certificate.is_none(),
                "{} via {}: certificates off must not emit evidence",
                benchmark.name,
                engine.name()
            );
        }
    }
}
