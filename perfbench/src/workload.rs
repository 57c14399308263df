//! The benchmark's workloads: which runs each one makes, and how the
//! workload seed shapes them.
//!
//! `catalog` and `xl` are fixed scenario sets: every run keeps its
//! scenario's own seed at every workload seed, and the workload seed only
//! shuffles the order the runs execute in (seed 0 keeps catalog order).
//! Their cost depends too much on the particular scenario seeds to vary
//! them: shifting every catalog seed by 1..4 moved one pass between 2.3 s
//! and 5.9 s, because the `grid-duty-cycle:bbr` timer storm that takes
//! two thirds of the default catalog's time exists only at some seeds.
//!
//! `static-seeds` averages over enough seeds to vary them: workload seed
//! `s` sweeps scenario seeds `own + s*STATIC_SWEEP + k` for `k` in
//! `0..STATIC_SWEEP`. Its pass time moved by under 3 % across seeds 0..3.
//!
//! The committed goldens apply wherever a catalog scenario runs at its own
//! seed: every `catalog` run, and the first sweep step of `static-seeds`
//! at seed 0.

use jtp_netsim::{Scenario, TransportKind};

/// All five transports, with the tag a run id carries for each.
const TRANSPORTS: [(TransportKind, &str); 5] = [
    (TransportKind::Jtp, "jtp"),
    (TransportKind::Tcp, "tcp"),
    (TransportKind::Atp, "atp"),
    (TransportKind::Cubic, "cubic"),
    (TransportKind::Bbr, "bbr"),
];

/// The paper's own protocol set: JTP against the two baselines it was
/// evaluated with.
const PAPER_TRANSPORTS: [(TransportKind, &str); 3] = [
    (TransportKind::Jtp, "jtp"),
    (TransportKind::Tcp, "tcp"),
    (TransportKind::Atp, "atp"),
];

/// Consecutive scenario seeds one `static-seeds` pass sweeps per workload
/// seed. Sized so one pass takes about a second on a 2-core x86-64 host.
pub const STATIC_SWEEP: u64 = 32;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Scenario::catalog()` x five transports: the 100 golden runs.
    Catalog,
    /// `Scenario::xl_catalog()` x five transports at n ~ 1000.
    Xl,
    /// The static, always-on, battery-free catalog scenarios x
    /// {JTP, TCP, ATP}, swept over [`STATIC_SWEEP`] consecutive seeds.
    StaticSeeds,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Catalog, Workload::Xl, Workload::StaticSeeds];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Xl => "xl",
            Workload::StaticSeeds => "static-seeds",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runs of one pass over this workload at `seed`.
    pub fn runs(self, seed: u64) -> Vec<Run> {
        match self {
            Workload::Catalog => shuffled(all_transports(Scenario::catalog(), true), seed),
            Workload::Xl => shuffled(all_transports(Scenario::xl_catalog(), false), seed),
            Workload::StaticSeeds => {
                let mut runs = Vec::new();
                for k in 0..STATIC_SWEEP {
                    let shift = seed.wrapping_mul(STATIC_SWEEP).wrapping_add(k);
                    for sc in Scenario::catalog().into_iter().filter(is_static) {
                        for (t, tag) in PAPER_TRANSPORTS {
                            runs.push(Run::new(&sc, t, tag, shift, true, true));
                        }
                    }
                }
                runs
            }
        }
    }
}

/// A static, always-on, battery-free scenario: the paper's own regime.
pub fn is_static(sc: &Scenario) -> bool {
    sc.mobile_mps.is_none() && sc.battery.is_none() && sc.duty_cycle.is_none()
}

fn all_transports(scenarios: Vec<Scenario>, has_goldens: bool) -> Vec<Run> {
    let mut runs = Vec::new();
    for sc in &scenarios {
        for (t, tag) in TRANSPORTS {
            runs.push(Run::new(sc, t, tag, 0, false, has_goldens));
        }
    }
    runs
}

/// `runs` in a seeded Fisher-Yates order (seed 0 leaves them as they are).
fn shuffled(mut runs: Vec<Run>, seed: u64) -> Vec<Run> {
    if seed == 0 {
        return runs;
    }
    let mut state = seed;
    for i in (1..runs.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        runs.swap(i, j);
    }
    runs
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One simulation run: a scenario, a transport and the seed it runs at.
#[derive(Clone, Debug)]
pub struct Run {
    /// `scenario:transport`, with `@seed` appended where a workload
    /// runs the same pair at several seeds.
    pub id: String,
    /// The key of this run's line in the golden file (`scenario:transport`).
    pub golden_key: String,
    /// The scenario, already carrying the seed this run uses.
    pub scenario: Scenario,
    /// The transport it is lowered for.
    pub transport: TransportKind,
    /// Whether the committed golden line for `golden_key` applies: the
    /// scenario is a golden catalog entry and kept its own seed.
    pub golden_checked: bool,
}

impl Run {
    fn new(
        sc: &Scenario,
        transport: TransportKind,
        tag: &str,
        shift: u64,
        swept: bool,
        has_goldens: bool,
    ) -> Run {
        let golden_key = format!("{}:{tag}", sc.name);
        let mut scenario = sc.clone();
        scenario.seed = sc.seed.wrapping_add(shift);
        let id = if swept {
            format!("{golden_key}@{}", scenario.seed)
        } else {
            golden_key.clone()
        };
        Run {
            id,
            golden_key,
            scenario,
            transport,
            golden_checked: has_goldens && shift == 0,
        }
    }
}
