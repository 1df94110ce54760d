//! The three traffic mixes, generated from the seed. The coordinator
//! only ever sees the submissions built here.

use eqasm_microarch::SimConfig;
use eqasm_quantum::NoiseModel;
use eqasm_runtime::{Job, RuntimeError, Submission, WorkloadKind, WorkloadSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small jobs over at most eight program shapes: after
    /// warm-up every shot forks from a cached prefix, so the per-job
    /// path (reactor, wire, scheduling, fold, snapshot fan-out) is the
    /// cost. Every job is subscribed.
    MixHot,
    /// Measurement-feedback programs whose randomness starts at the
    /// first measurement: every shot replays a ~5.6k-cycle tail in
    /// QuMa, so the simulator and the quantum backend dominate.
    FeedbackReplay,
    /// Every job a distinct program on a journaled coordinator: the
    /// program cache and the prefix LRU never hit, so the assembler,
    /// machine load, prefix build and journal appends dominate.
    ColdUnique,
}

/// Rates, limits and checks of one workload, sized from measurements
/// of the seed commit on a 2-core host.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Offered rate of the fixed-rate window (jobs/s).
    pub fixed_rps: f64,
    /// Latency limit on the tail percentile for a rung to count.
    pub limit_ms: f64,
    /// Rate search: first rung and the range it may explore.
    pub search_start: f64,
    pub search_floor: f64,
    pub search_ceiling: f64,
    /// Whether the coordinator runs with a journal (batch fsync).
    pub journaled: bool,
    /// Jobs of the fixed window checked against a serial reference;
    /// `None` checks every job.
    pub verify_sample: Option<usize>,
}

/// A generated submission and the tenant it is accounted against.
#[derive(Debug, Clone)]
pub struct Planned {
    pub tenant: &'static str,
    pub spec: WorkloadSpec,
}

impl Planned {
    pub fn submission(&self) -> Submission {
        Submission::workload(self.tenant, self.spec.clone())
    }

    /// The job the coordinator expands this submission to (a weight-1
    /// spec becomes its instance 0), for the serial reference run.
    pub fn reference_job(&self) -> Result<Job, RuntimeError> {
        self.spec.build_instance(0)
    }
}

/// SplitMix64: the per-job hash every generated choice comes from.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic stream of hashes for job `index` of `stream`.
struct Draws(u64);

impl Draws {
    fn new(seed: u64, stream: u64, index: u64) -> Draws {
        Draws(splitmix64(seed ^ splitmix64(stream ^ splitmix64(index))))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
}

/// Stratified draw: position `index % n` of a seeded permutation of
/// `0..n`, a fresh permutation per block of `n` jobs. Every block holds
/// each value exactly once, so any few hundred consecutive jobs carry
/// the same mix and a run's figures do not swing with how many costly
/// jobs it happened to draw.
fn stratified(seed: u64, stream: u64, index: u64, n: u64, salt: u64) -> u64 {
    let mut d = Draws::new(seed ^ salt, stream, index / n);
    let mut perm: Vec<u64> = (0..n).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (d.next() % (i as u64 + 1)) as usize);
    }
    perm[(index % n) as usize]
}

/// Expands weights into slots: `[2, 1]` becomes `[0, 0, 1]`.
fn slots(weights: &[u64]) -> Vec<usize> {
    weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
        .collect()
}

const MIX_TENANTS: [(&str, u64); 3] = [("alpha", 5), ("beta", 3), ("gamma", 2)];
const MIX_SHAPE_WEIGHTS: [u64; 6] = [3, 2, 2, 1, 1, 1];
const FEEDBACK_PROGRAMS: u64 = 4;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MixHot,
        Workload::FeedbackReplay,
        Workload::ColdUnique,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixHot => "mix-hot",
            Workload::FeedbackReplay => "feedback-replay",
            Workload::ColdUnique => "cold-unique",
        }
    }

    pub fn params(self) -> Params {
        match self {
            Workload::MixHot => Params {
                fixed_rps: 100.0,
                limit_ms: 100.0,
                search_start: 150.0,
                search_floor: 20.0,
                search_ceiling: 3000.0,
                journaled: false,
                verify_sample: None,
            },
            Workload::FeedbackReplay => Params {
                fixed_rps: 20.0,
                limit_ms: 250.0,
                search_start: 20.0,
                search_floor: 2.0,
                search_ceiling: 400.0,
                journaled: false,
                verify_sample: Some(8),
            },
            Workload::ColdUnique => Params {
                fixed_rps: 150.0,
                limit_ms: 50.0,
                search_start: 150.0,
                search_floor: 20.0,
                search_ceiling: 5000.0,
                journaled: true,
                verify_sample: None,
            },
        }
    }

    /// Job `index` of traffic stream `stream` (stream 0 is the
    /// fixed-rate window, later streams are search rungs).
    pub fn job(self, seed: u64, stream: u64, index: u64) -> Planned {
        let mut d = Draws::new(seed, stream, index);
        match self {
            Workload::MixHot => {
                let tenants = slots(&MIX_TENANTS.map(|t| t.1));
                let tenant =
                    MIX_TENANTS[tenants[stratified(seed, stream, index, 10, 1) as usize]].0;
                // Each block of 100 jobs holds every (shape slot, shot
                // count) pair once: 10 weighted shape slots x 10 shot
                // counts spread evenly over 200..=1000. A fixed-rate part
                // is a whole number of blocks, so every part has the same
                // mix and its tail percentile lands on the same kind of job.
                let pair = stratified(seed, stream, index, 100, 2);
                let shape = slots(&MIX_SHAPE_WEIGHTS)[(pair / 10) as usize];
                let shots = 200 + (800 * (pair % 10) + 4) / 9;
                Planned {
                    tenant,
                    spec: mix_shape(shape, shots).with_seed(d.next()),
                }
            }
            Workload::FeedbackReplay => {
                let program = stratified(seed, stream, index, FEEDBACK_PROGRAMS, 1);
                let tenant = if stratified(seed, stream, index, 2, 2) == 0 {
                    "fb-a"
                } else {
                    "fb-b"
                };
                Planned {
                    tenant,
                    spec: feedback_spec(program).with_seed(d.next()),
                }
            }
            Workload::ColdUnique => {
                let len = 120 + stratified(seed, stream, index, 81, 1);
                let text = cold_program(&mut d, len);
                Planned {
                    tenant: "cold",
                    spec: WorkloadSpec::new("cold", WorkloadKind::Source { text }, 50)
                        .with_seed(d.next()),
                }
            }
        }
    }

    /// Submissions that fill the coordinator's caches before timing:
    /// one per program shape (a cold-unique coordinator has nothing to
    /// fill, so it gets one job that is never timed).
    pub fn warmup(self) -> Vec<Planned> {
        match self {
            Workload::MixHot => (0..MIX_SHAPE_WEIGHTS.len())
                .map(|shape| Planned {
                    tenant: "warmup",
                    spec: mix_shape(shape, 64),
                })
                .collect(),
            Workload::FeedbackReplay => (0..FEEDBACK_PROGRAMS)
                .map(|p| Planned {
                    tenant: "warmup",
                    spec: feedback_spec(p).with_seed(p),
                })
                .collect(),
            Workload::ColdUnique => vec![self.job(0x00c0_1dc0_ffee, u64::MAX, 0)],
        }
    }
}

/// The six mix-hot program shapes (the prefix LRU holds eight).
fn mix_shape(shape: usize, shots: u64) -> WorkloadSpec {
    let rabi = |index: usize| WorkloadKind::Rabi {
        amplitudes: (0..8).map(|i| i as f64 / 4.0).collect(),
        amplitude_index: index,
    };
    match shape {
        0 => WorkloadSpec::new(
            "rb-k24-noisy",
            WorkloadKind::Rb {
                k: 24,
                interval_cycles: 1,
                sequence_seed: 0x5eed,
            },
            shots,
        )
        .with_config(SimConfig::default().with_noise(
            NoiseModel::with_coherence(30_000.0, 20_000.0).with_gate_error(0.001, 0.01),
        )),
        1 | 2 => WorkloadSpec::new(
            "allxy",
            WorkloadKind::AllXy {
                round: if shape == 1 { 5 } else { 21 },
                init_cycles: 100,
            },
            shots,
        ),
        3 => WorkloadSpec::new("rabi", rabi(2), shots),
        4 => WorkloadSpec::new("rabi", rabi(5), shots),
        5 => WorkloadSpec::new(
            "clifford-chain",
            WorkloadKind::CliffordChain {
                qubits: 16,
                layers: 8,
            },
            shots,
        ),
        _ => unreachable!("six shapes"),
    }
}

/// Feedback program `p`: prepare, measure, conditionally flip, then a
/// 248-instruction gate/QWAIT tail and a final measurement.
pub fn feedback_source(p: u64) -> String {
    const GATES: [&str; 4] = ["X90", "Y90", "X", "Y"];
    let mut src = String::from(
        "SMIS S0, {0}\nSMIS S1, {1}\nQWAIT 100\nX90 S0\nMEASZ S0\nQWAIT 50\nC_X S0\nQWAIT 10\n",
    );
    for i in 0..124u64 {
        let gate = GATES[((i + p) % 4) as usize];
        src.push_str(&format!("{gate} S{}\nQWAIT 20\n", (i + p / 2) % 2));
    }
    src.push_str("MEASZ S0\nQWAIT 50\nSTOP\n");
    src
}

fn feedback_spec(p: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        "feedback",
        WorkloadKind::Source {
            text: feedback_source(p),
        },
        100,
    )
}

/// A distinct RB-style single-qubit sequence of `len` random gates.
fn cold_program(d: &mut Draws, len: u64) -> String {
    const GATES: [&str; 6] = ["X90", "Y90", "XM90", "YM90", "X", "Y"];
    let mut src = String::from("SMIS S0, {0}\nQWAIT 100\n");
    for _ in 0..len {
        let h = d.next();
        src.push_str(&format!(
            "{} S0\nQWAIT {}\n",
            GATES[(h % 6) as usize],
            1 + (h >> 8) % 3
        ));
    }
    src.push_str("MEASZ S0\nQWAIT 50\nSTOP\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_seeded() {
        for w in Workload::ALL {
            let a = w.job(7, 0, 3);
            let b = w.job(7, 0, 3);
            assert_eq!(a.spec.base_seed, b.spec.base_seed);
            assert_eq!(a.tenant, b.tenant);
            assert_ne!(w.job(8, 0, 3).spec.base_seed, a.spec.base_seed);
        }
    }

    #[test]
    fn every_generated_program_builds() {
        for w in Workload::ALL {
            for planned in w
                .warmup()
                .into_iter()
                .chain((0..12).map(|i| w.job(1, 0, i)))
            {
                let job = planned.reference_job().expect("builds");
                assert!(!job.program.is_empty());
            }
        }
    }

    #[test]
    fn mix_hot_blocks_carry_the_exact_mix() {
        let mut shapes = std::collections::BTreeMap::new();
        let mut tenants = std::collections::BTreeMap::new();
        for i in 100..200 {
            let p = Workload::MixHot.job(5, 0, i);
            *shapes
                .entry((format!("{:?}", p.spec.kind), p.spec.shots))
                .or_insert(0) += 1;
            *tenants.entry(p.tenant).or_insert(0) += 1;
        }
        // 10 shape slots x 10 shot counts; AllXY and Rabi shapes share
        // a kind name pair-wise but differ in their parameters.
        assert_eq!(shapes.values().sum::<u32>(), 100);
        let rb = shapes
            .iter()
            .filter(|((k, _), _)| k.starts_with("Rb"))
            .map(|(_, n)| n)
            .sum::<u32>();
        assert_eq!(rb, 30);
        let shots: std::collections::BTreeSet<u64> = shapes.keys().map(|(_, s)| *s).collect();
        assert_eq!(
            (shots.len(), shots.first(), shots.last()),
            (10, Some(&200), Some(&1000))
        );
        assert_eq!(
            tenants,
            [("alpha", 50), ("beta", 30), ("gamma", 20)]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn mix_hot_uses_at_most_eight_shapes_and_cold_unique_never_repeats() {
        let shapes: std::collections::BTreeSet<String> = (0..500)
            .map(|i| format!("{:?}", Workload::MixHot.job(3, 0, i).spec.kind))
            .collect();
        assert!(shapes.len() <= 8, "{} shapes", shapes.len());
        let texts: std::collections::BTreeSet<String> = (0..200)
            .map(|i| format!("{:?}", Workload::ColdUnique.job(3, i % 2, i).spec.kind))
            .collect();
        assert_eq!(texts.len(), 200);
    }
}
