//! Folding samples into the named metrics, and printing them.
//!
//! Times are summed over runs of each run's median across passes, so one
//! pass disturbed by the host moves a run's figure only if it disturbed
//! most of that run's passes. Counts come from the first traced pass; the
//! benchmark checks that every later pass repeats its event counts.

use crate::measure::{Sample, Traced};
use crate::workload::Run;
use jtp_events::{DropCause, Subsystem};
use jtp_netsim::TransportKind;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Σ over runs of the run's median of `f` across its passes, with `f` in
/// nanoseconds and the result in seconds. Runs without samples (failed
/// runs) contribute nothing.
fn sum_median_s<'a, T: 'a>(
    per_run: impl IntoIterator<Item = &'a Vec<T>>,
    f: impl Fn(&T) -> u64,
) -> f64 {
    per_run
        .into_iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| median(samples.iter().map(|s| f(s) as f64).collect()))
        .sum::<f64>()
        / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced measurement.
///
/// `peak_rss_mb` is the process's, read by the caller; `peak_heap_mb` is
/// the largest heap any one run held live, which unlike the resident set
/// repeats exactly from run to run.
pub fn end_to_end(samples: &[Vec<Sample>], peak_rss_mb: f64) -> Vec<Metric> {
    let wall_s = sum_median_s(samples, Sample::wall_ns);
    let first = || samples.iter().filter_map(|s| s.first());
    let sim_s: f64 = first().map(|s| s.sim_s).sum();
    let heap_peak = first().map(|s| s.heap_peak).max().unwrap_or(0);
    vec![
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", sum_median_s(samples, Sample::setup_ns)),
        metric("sim_s_per_wall_s", "s/s", ratio(sim_s, wall_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("peak_heap_mb", "MB", heap_peak as f64 / MB),
    ]
}

/// Bytes per MB (`VmHWM`, read in kB, is converted with it too).
pub const MB: f64 = 1024.0 * 1024.0;

/// Layer figures of one traced measurement, before naming.
struct Layers<'a> {
    runs: &'a [Run],
    plain: &'a [Vec<Sample>],
    traced: &'a [Vec<Traced>],
}

impl Layers<'_> {
    /// Σ of per-run medians of a traced time, restricted to runs `keep`
    /// accepts.
    fn time(&self, keep: impl Fn(&Run) -> bool, f: impl Fn(&Traced) -> u64) -> f64 {
        let picked = self.runs.iter().zip(self.traced).filter(|(r, _)| keep(r));
        sum_median_s(picked.map(|(_, t)| t), f)
    }

    fn all_time(&self, f: impl Fn(&Traced) -> u64) -> f64 {
        self.time(|_| true, f)
    }

    fn sys_time(&self, keep: impl Fn(&Run) -> bool, sys: Subsystem) -> f64 {
        self.time(keep, |t| t.time.wall_ns(sys))
    }

    /// Σ over runs `keep` accepts of a count from the first traced pass.
    fn count(&self, keep: impl Fn(&Run) -> bool, f: impl Fn(&Traced) -> u64) -> f64 {
        self.runs
            .iter()
            .zip(self.traced)
            .filter(|(r, _)| keep(r))
            .filter_map(|(_, t)| t.first())
            .map(|t| f(t) as f64)
            .sum()
    }

    fn all_count(&self, f: impl Fn(&Traced) -> u64) -> f64 {
        self.count(|_| true, f)
    }
}

fn is_jtp(r: &Run) -> bool {
    r.transport == TransportKind::Jtp
}

fn is_baseline(r: &Run) -> bool {
    !is_jtp(r)
}

/// The per-layer metrics of a traced measurement: `plain[i]` and
/// `traced[i]` hold run `i`'s untraced and traced passes.
pub fn per_layer(runs: &[Run], plain: &[Vec<Sample>], traced: &[Vec<Traced>]) -> Vec<Metric> {
    let l = Layers {
        runs,
        plain,
        traced,
    };
    let run_s = l.all_time(|t| t.sample.run_ns);
    let events = l.all_count(|t| t.sample.events);
    let plain_run_s = sum_median_s(l.plain, |s| s.run_ns);
    let traced_wall_s = l.all_time(|t| t.sample.wall_ns());
    let plain_wall_s = sum_median_s(l.plain, Sample::wall_ns);
    let sends = l.all_count(|t| t.counters.sends);
    let send_failures = l.all_count(|t| t.counters.send_failures);
    let sources = l.all_count(|t| t.counters.sources_repaired);
    let entries = l.all_count(|t| t.counters.entries_changed);
    let slots = l.all_count(|t| t.counters.slots);
    let busy = l.all_count(|t| t.counters.busy_slots);
    let fresh = |keep: fn(&Run) -> bool| {
        ratio(
            l.count(keep, |t| t.counters.fresh_deliveries),
            l.count(keep, |t| t.counters.deliveries),
        )
    };

    let mut out = vec![
        metric("netsim.lower_s", "s", l.all_time(|t| t.sample.lower_ns)),
        metric(
            "netsim.assemble_s",
            "s",
            l.all_time(|t| t.sample.assemble_ns),
        ),
        metric("netsim.run_s", "s", run_s),
        metric("netsim.harvest_s", "s", l.all_time(|t| t.sample.harvest_ns)),
        metric(
            "netsim.energy_advert_s",
            "s",
            l.sys_time(|_| true, Subsystem::EnergyAdvert),
        ),
        metric(
            "netsim.dynamics_s",
            "s",
            l.sys_time(|_| true, Subsystem::Dynamics),
        ),
        metric(
            "netsim.energy_adverts",
            "count",
            l.all_count(|t| t.counters.energy_adverts),
        ),
    ];
    for cause in DropCause::ALL {
        out.push(metric(
            format!("netsim.drops.{}", cause.name()),
            "count",
            l.all_count(|t| t.counters.drops[cause.index()]),
        ));
    }
    out.extend([
        metric(
            "netsim.allocs_per_event",
            "allocs/event",
            ratio(l.all_count(|t| t.allocs), events),
        ),
        metric("phys.place_s", "s", l.all_time(|t| t.place_ns)),
        metric("phys.adjacency_s", "s", l.all_time(|t| t.adjacency_ns)),
        metric(
            "phys.geometry_diff_s",
            "s",
            l.sys_time(|_| true, Subsystem::GeometryDiff),
        ),
        metric(
            "phys.mobility_s",
            "s",
            l.sys_time(|_| true, Subsystem::Mobility),
        ),
        metric("phys.sends", "count", sends),
        metric("phys.send_failures", "count", send_failures),
        metric(
            "phys.channel_loss_ratio",
            "ratio",
            ratio(send_failures, sends),
        ),
        metric(
            "phys.battery_deaths",
            "count",
            l.all_count(|t| t.counters.battery_deaths),
        ),
        metric(
            "phys.mobility_ticks",
            "count",
            l.all_count(|t| t.counters.mobility_ticks),
        ),
        metric("routing.build_s", "s", l.all_time(|t| t.routing_build_ns)),
        metric(
            "routing.flood_s",
            "s",
            l.sys_time(|_| true, Subsystem::FloodPlane),
        ),
        metric(
            "routing.flood_spans",
            "count",
            l.all_count(|t| t.time.spans(Subsystem::FloodPlane)),
        ),
        metric("routing.sources_repaired", "count", sources),
        metric("routing.entries_changed", "count", entries),
        metric(
            "routing.entries_per_source",
            "ratio",
            ratio(entries, sources),
        ),
        metric(
            "mac.slot_plane_s",
            "s",
            l.sys_time(|_| true, Subsystem::SlotPlane),
        ),
        metric(
            "mac.slot_plane_spans",
            "count",
            l.all_count(|t| t.time.spans(Subsystem::SlotPlane)),
        ),
        metric("mac.slots", "count", slots),
        metric("mac.busy_slots", "count", busy),
        metric("mac.busy_ratio", "ratio", ratio(busy, slots)),
        metric("sim.events", "count", events),
        metric("sim.ns_per_event", "ns", ratio(plain_run_s * 1e9, events)),
        metric(
            "sim.queue_s",
            "s",
            l.all_time(|t| t.sample.run_ns.saturating_sub(t.time.dispatch_wall_ns())),
        ),
        metric("jtp.timers_s", "s", l.sys_time(is_jtp, Subsystem::Timers)),
        metric(
            "jtp.timers_spans",
            "count",
            l.count(is_jtp, |t| t.time.spans(Subsystem::Timers)),
        ),
        metric("jtp.fresh_ratio", "ratio", fresh(is_jtp)),
        metric(
            "jtp.attempt_budgets",
            "count",
            l.count(is_jtp, |t| t.counters.attempt_budgets),
        ),
        metric(
            "jtp.monitor_samples",
            "count",
            l.count(is_jtp, |t| t.counters.monitor_samples),
        ),
        metric(
            "baselines.timers_s",
            "s",
            l.sys_time(is_baseline, Subsystem::Timers),
        ),
        metric(
            "baselines.timers_spans",
            "count",
            l.count(is_baseline, |t| t.time.spans(Subsystem::Timers)),
        ),
        metric("baselines.fresh_ratio", "ratio", fresh(is_baseline)),
        metric(
            "events.trace_overhead_ratio",
            "ratio",
            ratio(traced_wall_s, plain_wall_s) - 1.0,
        ),
    ]);
    out
}

/// The layer-qualified name of an engine subsystem's bucket in `run`.
pub fn subsystem_name(run: &Run, sys: Subsystem) -> &'static str {
    match sys {
        Subsystem::SlotPlane => "mac.slot_plane",
        Subsystem::Timers if is_jtp(run) => "jtp.timers",
        Subsystem::Timers => "baselines.timers",
        Subsystem::Dynamics => "netsim.dynamics",
        Subsystem::EnergyAdvert => "netsim.energy_advert",
        Subsystem::Mobility => "phys.mobility",
        Subsystem::FloodPlane => "routing.flood",
        Subsystem::GeometryDiff => "phys.geometry_diff",
    }
}

/// The disjoint buckets a traced run's time splits into, as
/// `(name, wall_ns, spans)`: the benchmark's spans around set-up and
/// harvest, the dispatch-level subsystems (the nested flood and geometry
/// spans sit inside them), and the event loop outside every dispatch span.
pub fn buckets(run: &Run, t: &Traced) -> Vec<(&'static str, u64, u64)> {
    let mut out = vec![
        ("netsim.lower", t.sample.lower_ns, 1),
        ("netsim.assemble", t.sample.assemble_ns, 1),
    ];
    for sys in Subsystem::ALL {
        if !matches!(sys, Subsystem::FloodPlane | Subsystem::GeometryDiff) {
            out.push((
                subsystem_name(run, sys),
                t.time.wall_ns(sys),
                t.time.spans(sys),
            ));
        }
    }
    let queue_ns = t.sample.run_ns.saturating_sub(t.time.dispatch_wall_ns());
    out.push(("sim.queue", queue_ns, t.sample.events));
    out.push(("netsim.harvest", t.sample.harvest_ns, 1));
    out
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float as a JSON number (Rust's `Display` never uses an
/// exponent and keeps every digit); non-finite values are a bug here.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}
