//! The repository benchmark. Runs one workload through the simulator's
//! public entry points, checks every run's output, and prints the
//! workload's metrics; the last line of standard output is one JSON
//! object. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <catalog|xl|static-seeds> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--source <digest>] [--rustc <version>]
//! ```
//!
//! Run it from the repository root: the output check reads the committed
//! goldens there, and the traced run writes its spans under `.bench_out/`.

mod alloc;
mod golden;
mod measure;
mod report;
#[cfg(test)]
mod tests;
mod workload;

use jtp_events::Subsystem;
use measure::{Sample, Traced};
use report::Metric;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Run, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Passes an untraced measurement always makes, so every run's median
/// has at least three samples to choose from.
const MIN_PASSES: usize = 3;

/// Where the traced run writes its spans, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Identity of the code under test, for tagging results.
    commit: String,
    source: String,
    rustc: String,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0;
        let mut seconds = 30.0;
        let mut trace = false;
        let mut commit = "unknown".to_string();
        let mut source = "unknown".to_string();
        let mut rustc = "unknown".to_string();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        bad(&format!("expected one of {}", names.join(", ")))
                    })?)
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad(&"expected 0 < seconds <= 3600"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--commit" => commit = value,
                "--source" => source = value,
                "--rustc" => rustc = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            commit,
            source,
            rustc,
        })
    }

    /// The tags every result carries, so numbers from different hosts,
    /// builds and seeds stay apart.
    fn tags(&self) -> Vec<(&'static str, String)> {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        vec![
            ("workload", self.workload.name().to_string()),
            ("seed", self.seed.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("host_threads", threads.to_string()),
            ("commit", self.commit.clone()),
            ("source", self.source.clone()),
            ("rustc", self.rustc.clone()),
            ("profile", profile.to_string()),
        ]
    }
}

/// The output check behind `correct`/`failed`: every run's metrics FNV
/// must equal its golden line where one applies, and must repeat in every
/// later pass, traced or not.
struct Checker {
    goldens: BTreeMap<String, u64>,
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checker {
    fn new(runs: &[Run], goldens: BTreeMap<String, u64>) -> Checker {
        Checker {
            goldens,
            reference: vec![None; runs.len()],
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn check(&mut self, i: usize, run: &Run, fnv: Result<u64, String>) {
        self.attempted += 1;
        let verdict = fnv.and_then(|fnv| {
            if run.golden_checked {
                match self.goldens.get(&run.golden_key) {
                    None => return Err(format!("no golden line for {}", run.golden_key)),
                    Some(&want) if want != fnv => {
                        return Err(format!("metrics FNV {fnv:016x}, golden {want:016x}"))
                    }
                    Some(_) => {}
                }
            }
            match self.reference[i] {
                None => self.reference[i] = Some(fnv),
                Some(first) if first != fnv => {
                    return Err(format!("metrics FNV {fnv:016x}, first pass {first:016x}"))
                }
                Some(_) => {}
            }
            Ok(())
        });
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{}: {e}", run.id));
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// One untraced pass over every run; returns the pass's wall seconds.
fn plain_pass(runs: &[Run], checker: &mut Checker, samples: &mut [Vec<Sample>]) -> f64 {
    let mut wall_ns = 0;
    for (i, run) in runs.iter().enumerate() {
        let r = guarded(|| measure::plain(run));
        checker.check(i, run, r.as_ref().map(|s| s.fnv).map_err(Clone::clone));
        if let Ok(s) = r {
            wall_ns += s.wall_ns();
            samples[i].push(s);
        }
    }
    wall_ns as f64 / 1e9
}

/// One traced pass over every run.
fn traced_pass(runs: &[Run], checker: &mut Checker, traced: &mut [Vec<Traced>], epoch: Instant) {
    for (i, run) in runs.iter().enumerate() {
        let r = guarded(|| measure::traced(run, epoch));
        // Event counts are deterministic: a pass that does not repeat the
        // first one's is a determinism failure.
        let verdict = match (&r, traced[i].first()) {
            (Err(e), _) => Err(e.clone()),
            (Ok(t), Some(first))
                if format!("{:?}", first.counters) != format!("{:?}", t.counters) =>
            {
                Err("event counts differ from the first traced pass".to_string())
            }
            (Ok(t), _) => Ok(t.sample.fnv),
        };
        checker.check(i, run, verdict);
        if let Ok(t) = r {
            traced[i].push(t);
        }
    }
}

/// Repeat `pass` until the next repetition would end after `budget`, and
/// at least `min` times.
fn repeat(budget: Duration, min: usize, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut passes = 0;
    loop {
        let t = Instant::now();
        pass();
        passes += 1;
        longest = longest.max(t.elapsed());
        if passes >= min && start.elapsed() + longest > budget {
            return passes;
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / report::MB)
}

fn bench(args: &Args) -> Result<(), String> {
    let root = Path::new(".");
    let runs = args.workload.runs(args.seed);
    let goldens = golden::load(root)?;
    let mut checker = Checker::new(&runs, goldens);
    let budget = Duration::from_secs_f64(args.seconds);
    let tags = args.tags();
    let tag_line: Vec<String> = tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# perfbench {}", tag_line.join(" "));

    let mut plain: Vec<Vec<Sample>> = vec![Vec::new(); runs.len()];
    let metrics: Vec<Metric> = if args.trace {
        let epoch = Instant::now();
        let mut traced: Vec<Vec<Traced>> = vec![Vec::new(); runs.len()];
        let mut walls = Vec::new();
        let pairs = repeat(budget, 1, || {
            walls.push(plain_pass(&runs, &mut checker, &mut plain));
            traced_pass(&runs, &mut checker, &mut traced, epoch);
        });
        println!(
            "# {} runs x {pairs} untraced + traced pass pairs; untraced pass walls (s): {}",
            runs.len(),
            format_walls(&walls)
        );
        let slow = slowest(&runs, &plain, &traced);
        println!("# slowest runs (untraced wall; dominant bucket in the traced run):");
        for s in &slow {
            println!(
                "#   {:<40} {:>9.3} ms  {} {:.0}% ({:.3} us/span over {} spans)",
                s.id,
                s.wall_ms,
                s.layer,
                100.0 * s.share,
                s.us_per_span,
                s.spans
            );
        }
        let path = write_spans(root, args, &tags, &runs, &traced, &slow)?;
        println!("# spans written to {}", path.display());
        report::per_layer(&runs, &plain, &traced)
    } else {
        let mut walls = Vec::new();
        // Read after the first pass: later passes repeat the same runs and
        // only add the benchmark's own sample storage.
        let mut rss = None;
        let passes = repeat(budget, MIN_PASSES, || {
            walls.push(plain_pass(&runs, &mut checker, &mut plain));
            rss.get_or_insert_with(peak_rss_mb);
        });
        println!(
            "# {} runs x {passes} passes; pass walls (s): {}",
            runs.len(),
            format_walls(&walls)
        );
        report::end_to_end(&plain, rss.expect("at least one pass")?)
    };

    for m in &metrics {
        println!("{} = {} {}", m.name, report::json_number(m.value), m.unit);
    }
    if let Some(f) = &checker.first_failure {
        println!(
            "# FAILED {} of {} run(s); first: {f}",
            checker.failed, checker.attempted
        );
    }
    println!(
        "{}",
        report::result_line(
            checker.failed == 0,
            checker.attempted,
            checker.failed,
            &metrics
        )
    );
    Ok(())
}

fn format_walls(walls: &[f64]) -> String {
    let w: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    w.join(" ")
}

/// One of the slowest runs, with the bucket that dominates it.
struct Slow {
    id: String,
    wall_ms: f64,
    layer: &'static str,
    share: f64,
    us_per_span: f64,
    spans: u64,
}

/// The five slowest runs by untraced wall, each with the bucket that
/// dominates its first traced pass.
fn slowest(runs: &[Run], plain: &[Vec<Sample>], traced: &[Vec<Traced>]) -> Vec<Slow> {
    let mut order: Vec<(f64, usize)> = (0..runs.len())
        .filter(|&i| !plain[i].is_empty() && !traced[i].is_empty())
        .map(|i| {
            let walls = plain[i].iter().map(|x| x.wall_ns() as f64).collect();
            (report::median(walls), i)
        })
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0));
    order
        .iter()
        .take(5)
        .map(|&(wall_ns, i)| {
            let buckets = report::buckets(&runs[i], &traced[i][0]);
            let total: u64 = buckets.iter().map(|b| b.1).sum();
            let (layer, ns, spans) = *buckets
                .iter()
                .max_by_key(|b| b.1)
                .expect("buckets are never empty");
            Slow {
                id: runs[i].id.clone(),
                wall_ms: wall_ns / 1e6,
                layer,
                share: ns as f64 / total.max(1) as f64,
                us_per_span: ns as f64 / spans.max(1) as f64 / 1e3,
                spans,
            }
        })
        .collect()
}

/// Write the traced run's spans: for every traced pass of every run, the
/// benchmark's own spans (with their parent), and the run's engine
/// subsystem buckets from `TimeAccountant` — aggregates under the
/// event-loop span, `nested` marking the flood and geometry spans that
/// sit inside a dispatch bucket — plus the loop time outside them; and
/// the slowest runs.
fn write_spans(
    root: &Path,
    args: &Args,
    tags: &[(&'static str, String)],
    runs: &[Run],
    traced: &[Vec<Traced>],
    slow: &[Slow],
) -> Result<std::path::PathBuf, String> {
    let dir = root.join(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let tag_json: Vec<String> = tags
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_string(v)))
        .collect();
    let workload = json_string(args.workload.name());
    let mut spans = Vec::new();
    let mut buckets = Vec::new();
    for (run, passes) in runs.iter().zip(traced) {
        let id = json_string(&run.id);
        for (pass, t) in passes.iter().enumerate() {
            let root_id = spans.len();
            let first = t.spans.first().map_or(0, |s| s.start_ns);
            let last = t.spans.last().map_or(0, |s| s.end_ns);
            spans.push(format!(
                "{{\"id\": {root_id}, \"workload\": {workload}, \"run\": {id}, \"pass\": {pass}, \
                 \"layer\": \"netsim\", \"name\": \"total\", \"start_ns\": {first}, \
                 \"end_ns\": {last}, \"parent\": null}}"
            ));
            let mut loop_id = root_id;
            for s in &t.spans {
                let sid = spans.len();
                if s.name == "event_loop" {
                    loop_id = sid;
                }
                spans.push(format!(
                    "{{\"id\": {sid}, \"workload\": {workload}, \"run\": {id}, \"pass\": {pass}, \
                     \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {root_id}}}",
                    s.layer, s.name, s.start_ns, s.end_ns
                ));
            }
            let queue_ns = t.sample.run_ns.saturating_sub(t.time.dispatch_wall_ns());
            let mut push = |name: &str, ns: u64, n: u64, nested: bool| {
                buckets.push(format!(
                    "{{\"workload\": {workload}, \"run\": {id}, \"pass\": {pass}, \
                     \"bucket\": \"{name}\", \"wall_ns\": {ns}, \"spans\": {n}, \
                     \"parent\": {loop_id}, \"nested\": {nested}}}"
                ))
            };
            for sys in Subsystem::ALL {
                let nested = matches!(sys, Subsystem::FloodPlane | Subsystem::GeometryDiff);
                let name = report::subsystem_name(run, sys);
                push(name, t.time.wall_ns(sys), t.time.spans(sys), nested);
            }
            push("sim.queue", queue_ns, t.sample.events, false);
        }
    }
    let slow: Vec<String> = slow
        .iter()
        .map(|s| {
            format!(
                "{{\"run\": {}, \"wall_ms\": {}, \"dominant\": \"{}\", \"share\": {}, \
                 \"us_per_span\": {}, \"spans\": {}}}",
                json_string(&s.id),
                report::json_number(s.wall_ms),
                s.layer,
                report::json_number(s.share),
                report::json_number(s.us_per_span),
                s.spans
            )
        })
        .collect();
    let body = format!(
        "{{\"tags\": {{{}}},\n\"slowest\": [\n{}\n],\n\"spans\": [\n{}\n],\n\"buckets\": [\n{}\n]}}\n",
        tag_json.join(", "),
        slow.join(",\n"),
        spans.join(",\n"),
        buckets.join(",\n")
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// A JSON string literal for `s`.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
