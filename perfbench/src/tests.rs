//! Self-tests of the benchmark: workload shapes, the golden parser, metric
//! names against `BENCHMARK.json`, and the traced run's time accounting.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::golden;
use crate::measure::{self, Sample, Traced};
use crate::report::{self, Metric};
use crate::workload::{is_static, Run, Workload, STATIC_SWEEP};
use jtp_netsim::Scenario;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn workloads_lower_and_have_the_stated_run_counts() {
    assert_eq!(
        Scenario::catalog().iter().filter(|s| is_static(s)).count(),
        12
    );
    for seed in [0, 1, 17] {
        for (w, count) in [
            (Workload::Catalog, 100),
            (Workload::Xl, 15),
            (Workload::StaticSeeds, 36 * STATIC_SWEEP as usize),
        ] {
            let runs = w.runs(seed);
            assert_eq!(runs.len(), count, "{} at seed {seed}", w.name());
            for r in &runs {
                if let Err(e) = r.scenario.try_build(r.transport) {
                    panic!("{} lowers with {e}", r.id);
                }
            }
        }
    }
}

#[test]
fn workload_seeds_shape_the_inputs_deterministically() {
    let ids =
        |w: Workload, seed| -> Vec<String> { w.runs(seed).into_iter().map(|r| r.id).collect() };
    for w in Workload::ALL {
        assert_eq!(ids(w, 5), ids(w, 5), "{}", w.name());
        assert_ne!(ids(w, 0), ids(w, 5), "{}", w.name());
    }
    // The fixed sets only reorder, and keep every scenario's own seed.
    let mut shuffled = ids(Workload::Catalog, 5);
    shuffled.sort();
    let mut default = ids(Workload::Catalog, 0);
    default.sort();
    assert_eq!(shuffled, default);
    assert!(Workload::Catalog.runs(5).iter().all(|r| r.golden_checked));
    assert!(Workload::Xl.runs(0).iter().all(|r| !r.golden_checked));
    let golden_static = Workload::StaticSeeds.runs(0);
    assert_eq!(
        golden_static.iter().filter(|r| r.golden_checked).count(),
        36
    );
    assert!(Workload::StaticSeeds
        .runs(1)
        .iter()
        .all(|r| !r.golden_checked));
}

#[test]
fn golden_parser_reads_all_100_data_lines() {
    let goldens = golden::load(&repo_root()).expect("goldens load");
    assert_eq!(goldens.len(), 100);
    for r in Workload::Catalog.runs(0) {
        assert!(
            goldens.contains_key(&r.golden_key),
            "{} has no golden",
            r.id
        );
    }
    let err = golden::parse("a delivered=1 metrics=zz\n").unwrap_err();
    assert!(err.contains("bad metrics="), "{err}");
}

#[test]
fn plain_runs_reproduce_their_golden_fingerprints() {
    let goldens = golden::load(&repo_root()).expect("goldens load");
    for r in Workload::Catalog
        .runs(0)
        .iter()
        .filter(|r| r.id.starts_with("chain-bulk:"))
    {
        let s = measure::plain(r).expect("runs");
        assert_eq!(Some(&s.fnv), goldens.get(&r.golden_key), "{}", r.id);
    }
}

/// The names and units `BENCHMARK.json` declares in section `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let rest = &rest[rest.find('"').expect("value") + 1..];
        rest[..rest.find('"').expect("value end")].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_declared(metrics: &[Metric], key: &str) {
    let names: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    for (name, _) in &names {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    assert_eq!(
        names,
        declared(key),
        "emitted {key} metrics differ from BENCHMARK.json"
    );
}

/// A small traced measurement: two passes of a few catalog runs that
/// between them hit every engine subsystem.
fn small_trace() -> (Vec<Run>, Vec<Vec<Sample>>, Vec<Vec<Traced>>) {
    let picks = [
        "chain-bulk:jtp",
        "grid-churn-cbr:tcp",
        "clustered120-mobile-lifetime:jtp",
    ];
    let runs: Vec<Run> = Workload::Catalog
        .runs(0)
        .into_iter()
        .filter(|r| picks.contains(&r.id.as_str()))
        .collect();
    assert_eq!(runs.len(), picks.len());
    let epoch = Instant::now();
    let plain = runs
        .iter()
        .map(|r| (0..2).map(|_| measure::plain(r).expect("runs")).collect())
        .collect();
    let traced = runs
        .iter()
        .map(|r| {
            (0..2)
                .map(|_| measure::traced(r, epoch).expect("runs"))
                .collect()
        })
        .collect();
    (runs, plain, traced)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    let (runs, plain, traced) = small_trace();
    assert_declared(&report::end_to_end(&plain, 1.0), "end_to_end");
    assert_declared(&report::per_layer(&runs, &plain, &traced), "per_layer");
}

#[test]
fn dispatch_spans_and_queue_time_account_for_the_event_loop() {
    let (runs, plain, traced) = small_trace();
    for (p, t) in plain.iter().zip(&traced) {
        // Tracing observes the run without changing it.
        assert!(p
            .iter()
            .chain(t.iter().map(|t| &t.sample))
            .all(|s| s.fnv == p[0].fnv));
        assert!(t
            .iter()
            .all(|t| t.time.dispatch_wall_ns() <= t.sample.run_ns));
    }
    let m = report::per_layer(&runs, &plain, &traced);
    let dispatch: f64 = [
        "mac.slot_plane_s",
        "jtp.timers_s",
        "baselines.timers_s",
        "netsim.dynamics_s",
        "netsim.energy_advert_s",
        "phys.mobility_s",
    ]
    .iter()
    .map(|n| value(&m, n))
    .sum();
    let run_s = value(&m, "netsim.run_s");
    let accounted = dispatch + value(&m, "sim.queue_s");
    assert!(
        (accounted - run_s).abs() <= 1e-6 * run_s.max(1e-9) + 1e-9 * runs.len() as f64,
        "dispatch {dispatch} + queue != run {run_s}"
    );
    // The nested spans sit inside the dispatch buckets.
    assert!(value(&m, "routing.flood_s") <= dispatch);
    assert!(value(&m, "phys.geometry_diff_s") <= value(&m, "phys.mobility_s"));
    // The picks exercise mobility, floods and the slot plane.
    for n in [
        "phys.mobility_ticks",
        "routing.flood_spans",
        "mac.slot_plane_spans",
    ] {
        assert!(value(&m, n) > 0.0, "{n} is zero");
    }
}
