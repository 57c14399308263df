//! One run through the program's public entry points, timed from
//! outside: lowering (`Scenario::try_build`), assembly
//! (`Network::try_with_subscriber`), the event loop (`jtp_sim::run_until`)
//! and the harvest (`Network::finalize` + `Network::metrics`), sequenced
//! exactly as the library's own runner sequences them.

use crate::alloc;
use crate::golden::metrics_fnv;
use crate::workload::Run;
use jtp_events::{EventCounters, NoopSubscriber, Subscriber, TimeAccountant};
use jtp_netsim::topology::{adjacency_from_positions, try_place_nodes};
use jtp_netsim::{cluster_spec_for, Network, RoutingBackendKind};
use jtp_routing::{BackendSelect, LinkState};
use jtp_sim::run_until;
use std::hint::black_box;
use std::time::Instant;

/// Wall-clock nanoseconds of each phase of one run, plus its outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// `Scenario::try_build`.
    pub lower_ns: u64,
    /// `Network::try_with_subscriber`.
    pub assemble_ns: u64,
    /// `jtp_sim::run_until`.
    pub run_ns: u64,
    /// `Network::finalize` + `Network::metrics`.
    pub harvest_ns: u64,
    /// Simulated seconds the run covered (`Metrics::duration_s`).
    pub sim_s: f64,
    /// Events the queue processed.
    pub events: u64,
    /// Most heap bytes the run held live at once, from lowering to harvest.
    pub heap_peak: u64,
    /// FNV of the harvested metrics (the golden `metrics=` field).
    pub fnv: u64,
}

impl Sample {
    /// Set-up: lowering plus assembly.
    pub fn setup_ns(&self) -> u64 {
        self.lower_ns + self.assemble_ns
    }

    /// The whole run: lower, assemble, run and harvest.
    pub fn wall_ns(&self) -> u64 {
        self.setup_ns() + self.run_ns + self.harvest_ns
    }
}

/// What the traced run adds to a [`Sample`]: the set-up layers timed on
/// their own, the stacked subscribers and the event loop's allocations.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// The same phases as the plain run, timed with the subscribers on.
    pub sample: Sample,
    /// `topology::try_place_nodes` on the run's config.
    pub place_ns: u64,
    /// `topology::adjacency_from_positions` on that placement.
    pub adjacency_ns: u64,
    /// The routing constructor (`LinkState::with_backend`).
    pub routing_build_ns: u64,
    /// Event counts.
    pub counters: EventCounters,
    /// Wall time per engine subsystem.
    pub time: TimeAccountant,
    /// Allocations made inside `run_until`.
    pub allocs: u64,
    /// The benchmark's own spans around each public call, in call order.
    pub spans: Vec<Span>,
}

/// One timed public call: `[start_ns, end_ns)` since the benchmark's
/// epoch, with the layer the call belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Crate the called entry point belongs to.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

/// Run once with the events layer compiled out (`NoopSubscriber`), the
/// path `run_experiment` users take.
pub fn plain(run: &Run) -> Result<Sample, String> {
    execute(run, NoopSubscriber, false).map(|(s, ..)| s)
}

/// Run once with `EventCounters` and `TimeAccountant` stacked, after
/// timing the set-up layers on their own on the same config.
pub fn traced(run: &Run, epoch: Instant) -> Result<Traced, String> {
    let cfg = run
        .scenario
        .try_build(run.transport)
        .map_err(config_error)?;
    let t0 = Instant::now();
    let positions =
        try_place_nodes(&cfg.topology, &cfg.pathloss, cfg.seed).map_err(config_error)?;
    let t1 = Instant::now();
    let adjacency = adjacency_from_positions(&positions, &cfg.pathloss);
    let t2 = Instant::now();
    // The backend selection `Network::try_with_subscriber` makes.
    let select = match cfg.routing_backend {
        RoutingBackendKind::Exact => BackendSelect::Exact,
        RoutingBackendKind::Hierarchical => {
            BackendSelect::Hierarchical(cluster_spec_for(&cfg.topology))
        }
    };
    let routing = black_box(LinkState::with_backend(
        &adjacency,
        cfg.routing_refresh,
        &select,
    ));
    let t3 = Instant::now();
    drop(routing);
    let stack = (EventCounters::default(), TimeAccountant::default());
    let (sample, (counters, time), allocs, m) = execute(run, stack, true)?;
    let span = |layer, name, a, b| Span {
        layer,
        name,
        start_ns: nanos(epoch, a),
        end_ns: nanos(epoch, b),
    };
    let spans = vec![
        span("phys", "place", t0, t1),
        span("phys", "adjacency", t1, t2),
        span("routing", "build", t2, t3),
        span("netsim", "lower", m[0], m[1]),
        span("netsim", "assemble", m[1], m[2]),
        span("netsim", "event_loop", m[2], m[3]),
        span("netsim", "harvest", m[3], m[4]),
    ];
    Ok(Traced {
        sample,
        place_ns: nanos(t0, t1),
        adjacency_ns: nanos(t1, t2),
        routing_build_ns: nanos(t2, t3),
        counters,
        time,
        allocs,
        spans,
    })
}

/// The timed run: its sample, the subscriber, the event loop's
/// allocations (when `count`) and the instants between the phases.
fn execute<S: Subscriber>(
    run: &Run,
    sub: S,
    count: bool,
) -> Result<(Sample, S, u64, [Instant; 5]), String> {
    let t0 = Instant::now();
    let (finished, heap_peak) = alloc::peak(|| -> Result<_, String> {
        let cfg = run
            .scenario
            .try_build(run.transport)
            .map_err(config_error)?;
        let t1 = Instant::now();
        let (mut net, mut queue) = Network::try_with_subscriber(&cfg, sub).map_err(config_error)?;
        let t2 = Instant::now();
        let horizon = net.horizon();
        let allocs = if count {
            alloc::count(|| run_until(&mut net, &mut queue, horizon)).1
        } else {
            run_until(&mut net, &mut queue, horizon);
            0
        };
        let t3 = Instant::now();
        net.finalize(horizon);
        // The harvest instant `jtp_netsim::runner` uses: the queue's drain
        // time when every flow completed, else the horizon.
        let now = if net.all_flows_completed() {
            queue.now().min(horizon)
        } else {
            horizon
        };
        let metrics = net.metrics(now);
        let t4 = Instant::now();
        Ok((net, queue, metrics, allocs, [t0, t1, t2, t3, t4]))
    });
    let (net, queue, metrics, allocs, t) = finished?;
    let sample = Sample {
        lower_ns: nanos(t[0], t[1]),
        assemble_ns: nanos(t[1], t[2]),
        run_ns: nanos(t[2], t[3]),
        harvest_ns: nanos(t[3], t[4]),
        sim_s: metrics.duration_s,
        events: queue.events_processed(),
        heap_peak,
        fnv: metrics_fnv(&metrics),
    };
    Ok((sample, net.into_subscriber(), allocs, t))
}

fn config_error(e: jtp_netsim::ConfigError) -> String {
    format!("config error: {e}")
}

fn nanos(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}
