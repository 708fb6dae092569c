//! Seeded design draws for the three workloads.
//!
//! Every workload is a fixed list of *slots* (a generator family plus a
//! size class); the seed draws the parameters a slot leaves open.  Slots
//! keep the mix of families, sizes and holding/failing properties the
//! same for every seed (see [`draw`] for what the seed varies).
//!
//! Each draw passes through a domain guard before it is built: a
//! parameter set outside the generator's valid domain is rejected and
//! drawn again.  The guard exists because some generators accept invalid
//! parameters silently — `industrial::pipeline` and the counters compare
//! against `bad_at` truncated to `counter_bits`/`width` bits, so a
//! threshold at or above `2^bits` turns a holding property into a failing
//! one.  The expected verdict of every generated property follows from
//! the parameters alone (see [`Params::expected`]).

use aig::Aig;
use mc::Engine;
use workloads::industrial::IndustrialParams;
use workloads::{arbiter, counter, fifo, industrial, token_ring, traffic};

/// The seed whose figures back a performance claim.  No tuning is done on
/// it: a claim is first made on other seeds and then re-checked here.
pub const HELD_OUT_SEED: u64 = 2011;

/// The five AIGER fixtures of the repository, compiled in so the
/// benchmark reads no file at run time.
const FIXTURES: [(&str, &str); 5] = [
    (
        "arbiter_multi",
        include_str!("../../tests/data/arbiter_multi.aag"),
    ),
    (
        "counter_multi",
        include_str!("../../tests/data/counter_multi.aag"),
    ),
    (
        "outputs_only",
        include_str!("../../tests/data/outputs_only.aag"),
    ),
    (
        "padded_counter",
        include_str!("../../tests/data/padded_counter.aag"),
    ),
    ("toggle2", include_str!("../../tests/data/toggle2.aag")),
];

/// A small deterministic generator (SplitMix64): the draw must not depend
/// on anything but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty draw range {lo}..={hi}");
        lo + self.next() % (hi - lo + 1)
    }
}

/// Expected outcome of one property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Holds,
    FailsAt(usize),
}

impl Expect {
    /// The comparison key used for every engine: verdict kind plus the
    /// counterexample depth (the portfolio's contract; `k_fp`/`j_fp` are
    /// never compared).
    pub fn key(self) -> (&'static str, Option<usize>) {
        match self {
            Expect::Holds => ("proved", None),
            Expect::FailsAt(depth) => ("falsified", Some(depth)),
        }
    }
}

/// Generator parameters of one design.
#[derive(Clone, Debug)]
pub enum Params {
    Counter {
        width: usize,
        modulus: u64,
        bad_at: u64,
    },
    Gated {
        width: usize,
        modulus: u64,
        bad_at: u64,
    },
    Sync {
        width: usize,
        a: u64,
        b: u64,
        sync: u64,
    },
    Ring {
        stations: usize,
        bug: bool,
    },
    Arbiter {
        clients: usize,
        bug: bool,
    },
    Fifo {
        width: usize,
        bug: bool,
    },
    Traffic {
        phase_bits: usize,
        bug: bool,
    },
    Industrial(IndustrialParams),
    CounterMulti {
        width: usize,
        modulus: u64,
        bad_ats: Vec<u64>,
    },
    ArbiterMulti {
        clients: usize,
        bug: bool,
    },
    Fixture(usize),
}

impl Params {
    /// The domain guard: `true` when the generator builds exactly the
    /// design the parameters describe.
    pub fn in_domain(&self) -> bool {
        let fits = |width: usize, value: u64| width < 64 && value < (1u64 << width);
        let modulus_ok = |width: usize, modulus: u64| modulus >= 1 && modulus <= (1u64 << width);
        match self {
            Params::Counter {
                width,
                modulus,
                bad_at,
            }
            | Params::Gated {
                width,
                modulus,
                bad_at,
            } => *width >= 1 && modulus_ok(*width, *modulus) && fits(*width, *bad_at),
            Params::Sync { width, a, b, sync } => {
                *width >= 1
                    && modulus_ok(*width, *a)
                    && modulus_ok(*width, *b)
                    && fits(*width, *sync)
            }
            Params::Ring { stations, .. } => *stations >= 2,
            Params::Arbiter { clients, .. } | Params::ArbiterMulti { clients, .. } => *clients >= 2,
            Params::Fifo { width, .. } => (2..16).contains(width),
            Params::Traffic { phase_bits, .. } => (2..16).contains(phase_bits),
            Params::Industrial(p) => {
                p.counter_bits >= 1
                    && modulus_ok(p.counter_bits, p.modulus)
                    && fits(p.counter_bits, p.bad_at)
            }
            Params::CounterMulti {
                width,
                modulus,
                bad_ats,
            } => {
                *width >= 1
                    && modulus_ok(*width, *modulus)
                    && !bad_ats.is_empty()
                    && bad_ats.iter().all(|&b| fits(*width, b))
            }
            Params::Fixture(index) => *index < FIXTURES.len(),
        }
    }

    /// Builds the design.  Fixtures are parsed from their AIGER text;
    /// a fixture without bad-state properties checks its outputs, as the
    /// pre-1.9 HWMCC convention has it.
    pub fn build(&self) -> Aig {
        match self {
            Params::Counter {
                width,
                modulus,
                bad_at,
            } => counter::modular(*width, *modulus, *bad_at),
            Params::Gated {
                width,
                modulus,
                bad_at,
            } => counter::gated(*width, *modulus, *bad_at),
            Params::Sync { width, a, b, sync } => counter::synchronised(*width, *a, *b, *sync),
            Params::Ring { stations, bug } => token_ring::ring(*stations, *bug),
            Params::Arbiter { clients, bug } => arbiter::round_robin(*clients, *bug),
            Params::Fifo { width, bug } => fifo::controller(*width, *bug),
            Params::Traffic { phase_bits, bug } => traffic::crossing(*phase_bits, *bug),
            Params::Industrial(p) => industrial::pipeline(*p),
            Params::CounterMulti {
                width,
                modulus,
                bad_ats,
            } => counter::modular_multi(*width, *modulus, bad_ats),
            Params::ArbiterMulti { clients, bug } => arbiter::round_robin_multi(*clients, *bug),
            Params::Fixture(index) => {
                let (name, text) = FIXTURES[*index];
                let mut aig = aig::parse_aag(text)
                    .unwrap_or_else(|e| panic!("fixture {name} does not parse: {e}"));
                if aig.num_bad() == 0 {
                    aig.promote_outputs_to_bad();
                }
                aig.set_name(name);
                aig
            }
        }
    }

    /// The expected outcome of every property, derived from the
    /// construction; `None` for the fixtures, whose expectation comes
    /// from exact BDD reachability instead.
    pub fn expected(&self) -> Option<Vec<Expect>> {
        let threshold = |modulus: u64, bad_at: u64, offset: usize| {
            if bad_at < modulus {
                Expect::FailsAt(offset + bad_at as usize)
            } else {
                Expect::Holds
            }
        };
        let bug = |fails: bool, depth: usize| {
            if fails {
                Expect::FailsAt(depth)
            } else {
                Expect::Holds
            }
        };
        Some(match self {
            Params::Counter {
                modulus, bad_at, ..
            }
            | Params::Gated {
                modulus, bad_at, ..
            } => {
                vec![threshold(*modulus, *bad_at, 0)]
            }
            // Both counters sit at `sync` after `sync` steps when it is
            // below both moduli; otherwise one of them never reaches it.
            Params::Sync { a, b, sync, .. } => vec![threshold((*a).min(*b), *sync, 0)],
            // The glitch duplicates the token in the first step.
            Params::Ring { bug: b, .. } => vec![bug(*b, 1)],
            // Client 0 is granted one step after requesting, client 1
            // legitimately one step after the token reaches it.
            Params::Arbiter { bug: b, .. } => vec![bug(*b, 2)],
            // Pushing every cycle fills the FIFO after 2^w - 1 steps; the
            // next push overflows and the sticky flag shows it a step later.
            Params::Fifo { width, bug: b } => vec![bug(*b, 1 << width)],
            // Both lights start green.
            Params::Traffic { bug: b, .. } => vec![bug(*b, 0)],
            Params::Industrial(p) => vec![threshold(p.modulus, p.bad_at, p.pipeline_depth)],
            Params::CounterMulti {
                modulus, bad_ats, ..
            } => bad_ats.iter().map(|&b| threshold(*modulus, b, 0)).collect(),
            // With the bug, client 0 is granted whenever it requests, so
            // property j >= 1 clashes as soon as client j holds a
            // legitimate grant (step j + 1) and property 0 at the first
            // of those (step 2).
            Params::ArbiterMulti { clients, bug: b } => (0..*clients)
                .map(|j| bug(*b, if j == 0 { 2 } else { j + 1 }))
                .collect(),
            Params::Fixture(_) => return None,
        })
    }

    /// The parameters as a JSON object, for the run metadata.
    pub fn to_json(&self) -> String {
        match self {
            Params::Counter { width, modulus, bad_at } => {
                format!("{{\"gen\":\"counter::modular\",\"width\":{width},\"modulus\":{modulus},\"bad_at\":{bad_at}}}")
            }
            Params::Gated { width, modulus, bad_at } => {
                format!("{{\"gen\":\"counter::gated\",\"width\":{width},\"modulus\":{modulus},\"bad_at\":{bad_at}}}")
            }
            Params::Sync { width, a, b, sync } => {
                format!("{{\"gen\":\"counter::synchronised\",\"width\":{width},\"modulus_a\":{a},\"modulus_b\":{b},\"sync\":{sync}}}")
            }
            Params::Ring { stations, bug } => {
                format!("{{\"gen\":\"token_ring::ring\",\"stations\":{stations},\"bug\":{bug}}}")
            }
            Params::Arbiter { clients, bug } => {
                format!("{{\"gen\":\"arbiter::round_robin\",\"clients\":{clients},\"bug\":{bug}}}")
            }
            Params::Fifo { width, bug } => {
                format!("{{\"gen\":\"fifo::controller\",\"width\":{width},\"bug\":{bug}}}")
            }
            Params::Traffic { phase_bits, bug } => {
                format!("{{\"gen\":\"traffic::crossing\",\"phase_bits\":{phase_bits},\"bug\":{bug}}}")
            }
            Params::Industrial(p) => format!(
                "{{\"gen\":\"industrial::pipeline\",\"counter_bits\":{},\"modulus\":{},\"bad_at\":{},\"pipeline_depth\":{},\"payload_latches\":{},\"seed\":{}}}",
                p.counter_bits, p.modulus, p.bad_at, p.pipeline_depth, p.payload_latches, p.seed
            ),
            Params::CounterMulti { width, modulus, bad_ats } => {
                let list: Vec<String> = bad_ats.iter().map(u64::to_string).collect();
                format!(
                    "{{\"gen\":\"counter::modular_multi\",\"width\":{width},\"modulus\":{modulus},\"bad_ats\":[{}]}}",
                    list.join(",")
                )
            }
            Params::ArbiterMulti { clients, bug } => {
                format!("{{\"gen\":\"arbiter::round_robin_multi\",\"clients\":{clients},\"bug\":{bug}}}")
            }
            Params::Fixture(index) => {
                format!("{{\"gen\":\"fixture\",\"file\":\"tests/data/{}.aag\"}}", FIXTURES[*index].0)
            }
        }
    }
}

/// What runs on a design: single-property jobs per engine (one per
/// property) and, optionally, one `verify_all` job over all properties.
#[derive(Clone, Debug)]
pub struct Slot {
    pub params: Params,
    pub engines: &'static [Engine],
    pub verify_all: bool,
}

const PAPER: [Engine; 4] = [
    Engine::Itp,
    Engine::ItpSeq,
    Engine::SerialItpSeq,
    Engine::ItpSeqCba,
];
const ALL_SINGLE: [Engine; 6] = [
    Engine::Itp,
    Engine::ItpSeq,
    Engine::SerialItpSeq,
    Engine::ItpSeqCba,
    Engine::Pdr,
    Engine::Portfolio,
];
const RACE: [Engine; 2] = [Engine::Pdr, Engine::Portfolio];

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["seq-proofs", "industrial-race", "multi-prop"];

/// Draws one parameter set, re-drawing until the domain guard accepts;
/// counts the rejected draws in `rejected`.
fn guarded(rng: &mut Rng, rejected: &mut u64, draw: impl Fn(&mut Rng) -> Params) -> Params {
    loop {
        let params = draw(rng);
        if params.in_domain() {
            return params;
        }
        *rejected += 1;
    }
}

/// An industrial pipeline around a fixed control part (counter, request
/// pipeline and threshold): the seed draws the payload's size and
/// interconnect, which the cone-of-influence pass removes.
fn industrial_slot(
    rng: &mut Rng,
    rejected: &mut u64,
    (counter_bits, modulus, pipeline_depth): (usize, u64, usize),
    fail_at: Option<u64>,
) -> Params {
    guarded(rng, rejected, |r| {
        Params::Industrial(IndustrialParams {
            counter_bits,
            modulus,
            bad_at: fail_at.unwrap_or((1 << counter_bits) - 1),
            pipeline_depth,
            payload_latches: r.range(64, 128) as usize,
            seed: r.range(0, u32::MAX as u64),
        })
    })
}

/// Draws the slot list of `workload` from `seed`; `None` for an unknown
/// workload.  Returns the slots and the number of draws the domain guard
/// rejected.
///
/// The work of a model-checking run moves erratically with a design's
/// parameters (one step of a holding threshold can triple it), so the
/// designs that carry most of a pass's time are fixed per slot, and the
/// seed varies what leaves the work per pass nearly unchanged: failing
/// thresholds of cheap designs within a step, the sizes of cheap designs,
/// and the industrial payload the cone-of-influence pass removes.
/// Holding thresholds vary only on `multi-prop`, where the engines that
/// run them are cheap.
pub fn draw(workload: &str, seed: u64) -> Option<(Vec<Slot>, u64)> {
    let mut rng = Rng::new(seed);
    let mut rejected = 0u64;
    let mut slots = Vec::new();
    let mut push = |params: Params, engines: &'static [Engine], verify_all: bool| {
        slots.push(Slot {
            params,
            engines,
            verify_all,
        })
    };
    match workload {
        // The paper's mid-size class: 18 holding properties and 8 failing.
        // The four paper engines are the load; PDR, the portfolio and
        // verify_all run on the same designs as the cross-engine
        // reference.
        "seq-proofs" => {
            let all: &'static [Engine] = &ALL_SINGLE;
            let fixed = [
                Params::Traffic {
                    phase_bits: 4,
                    bug: false,
                },
                Params::Traffic {
                    phase_bits: 3,
                    bug: false,
                },
                Params::Ring {
                    stations: 8,
                    bug: false,
                },
                Params::Ring {
                    stations: 7,
                    bug: false,
                },
                Params::Ring {
                    stations: 6,
                    bug: false,
                },
                Params::Arbiter {
                    clients: 5,
                    bug: false,
                },
                Params::Arbiter {
                    clients: 4,
                    bug: false,
                },
                Params::Fifo {
                    width: 4,
                    bug: false,
                },
                Params::Fifo {
                    width: 3,
                    bug: false,
                },
                Params::Fifo {
                    width: 2,
                    bug: false,
                },
                Params::Fifo {
                    width: 3,
                    bug: true,
                },
            ];
            for params in fixed {
                push(params, all, true);
            }
            for (width, modulus) in [(4usize, 12u64), (4, 10), (3, 6)] {
                let bad_at = (1 << width) - 1;
                push(
                    Params::Counter {
                        width,
                        modulus,
                        bad_at,
                    },
                    all,
                    true,
                );
            }
            for (width, modulus) in [(4usize, 12u64), (3, 6)] {
                let bad_at = (1 << width) - 1;
                push(
                    Params::Gated {
                        width,
                        modulus,
                        bad_at,
                    },
                    all,
                    true,
                );
            }
            push(
                Params::Sync {
                    width: 3,
                    a: 4,
                    b: 6,
                    sync: 7,
                },
                all,
                true,
            );
            let mut pick = |lo: u64, hi: u64| rng.range(lo, hi) as usize;
            let ring_ok = pick(4, 5);
            let arbiter_ok = pick(3, 4);
            let ring_bug = pick(4, 8);
            let arbiter_bug = pick(3, 5);
            let traffic_bug = pick(3, 5);
            let counter_fail = pick(10, 11) as u64;
            let counter3_fail = pick(4, 5) as u64;
            let gated_fail = pick(5, 6) as u64;
            let sync_fail = pick(2, 3) as u64;
            push(
                Params::Ring {
                    stations: ring_ok,
                    bug: false,
                },
                all,
                true,
            );
            push(
                Params::Arbiter {
                    clients: arbiter_ok,
                    bug: false,
                },
                all,
                true,
            );
            push(
                Params::Ring {
                    stations: ring_bug,
                    bug: true,
                },
                all,
                true,
            );
            push(
                Params::Arbiter {
                    clients: arbiter_bug,
                    bug: true,
                },
                all,
                true,
            );
            push(
                Params::Traffic {
                    phase_bits: traffic_bug,
                    bug: true,
                },
                all,
                true,
            );
            push(
                Params::Counter {
                    width: 4,
                    modulus: 12,
                    bad_at: counter_fail,
                },
                all,
                true,
            );
            push(
                Params::Counter {
                    width: 3,
                    modulus: 6,
                    bad_at: counter3_fail,
                },
                all,
                true,
            );
            push(
                Params::Gated {
                    width: 4,
                    modulus: 12,
                    bad_at: gated_fail,
                },
                all,
                true,
            );
            push(
                Params::Sync {
                    width: 3,
                    a: 5,
                    b: 7,
                    sync: sync_fail,
                },
                all,
                true,
            );
        }
        // Deep industrial pipelines: a 5-7 bit control counter behind a
        // request pipeline, inside 64-128 payload latches that only the
        // cone-of-influence pass removes; about half the properties fail.
        // PDR and the portfolio are the load and verify_all runs beside
        // them.  The paper engines time out on these depths, so they run
        // on two shallow (4-bit) pipelines only.
        "industrial-race" => {
            let deep: [((usize, u64, usize), Option<u64>); 10] = [
                ((5, 24, 4), None),
                ((5, 28, 5), Some(10)),
                ((6, 40, 5), None),
                ((6, 50, 4), None),
                ((6, 56, 4), Some(20)),
                ((6, 60, 5), Some(28)),
                ((7, 90, 4), None),
                ((7, 100, 5), None),
                ((7, 110, 4), Some(40)),
                ((7, 120, 5), Some(45)),
            ];
            for (control, fail_at) in deep {
                let params = industrial_slot(&mut rng, &mut rejected, control, fail_at);
                push(params, &RACE, true);
            }
            for fail_at in [None, Some(7)] {
                let params = industrial_slot(&mut rng, &mut rejected, (4, 12, 4), fail_at);
                push(params, &PAPER, false);
            }
        }
        // Multi-property designs under verify_all with the portfolio
        // scheduler.  The per-property loop (PDR and the portfolio on
        // every property) is the reference verify_all must agree with;
        // the paper engines run per property on the arbiters and the
        // five fixtures.
        "multi-prop" => {
            for (modulus, count) in [(10u64, 3usize), (12, 5), (13, 6), (14, 8)] {
                let params = guarded(&mut rng, &mut rejected, |r| {
                    // Thresholds alternate between the two sides of the
                    // modulus; holding ones are drawn up to `2^4`, which
                    // the guard rejects.
                    let bad_ats = (0..count)
                        .map(|i| {
                            if i % 2 == 0 {
                                r.range(modulus - 3, modulus - 1)
                            } else {
                                r.range(modulus, 16)
                            }
                        })
                        .collect();
                    Params::CounterMulti {
                        width: 4,
                        modulus,
                        bad_ats,
                    }
                });
                push(params, &RACE, true);
            }
            for bug in [false, true] {
                push(Params::ArbiterMulti { clients: 5, bug }, &ALL_SINGLE, true);
            }
            for index in 0..FIXTURES.len() {
                push(Params::Fixture(index), &ALL_SINGLE, true);
            }
        }
        _ => return None,
    }
    Some((slots, rejected))
}
