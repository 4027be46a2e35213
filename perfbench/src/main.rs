//! End-to-end and per-layer benchmark of the WFIT tuning service.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable-votes --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each run prepares one workload (`paper-auto` or `durable-votes`, see
//! [`bench::Spec::named`]) and drives it through the
//! service's public API only — SQL text → `Database::parse` →
//! `TuningService::submit`/`poll`, plus `with_persistence`/`snapshot`/
//! `restore` — in whole passes over the workload for about `--seconds`
//! seconds (at least four iterations), then runs the correctness gate:
//! every event applied exactly once by every session, nothing pending or
//! faulted, deterministic counters equal across passes, every session equal to a direct
//! `TuningSession` replay over its plain `Database`, and for a durable
//! workload a kill-and-restore into a fresh host with identical cells.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` wraps every
//! session in the timing shims of [`trace`] and reports the per-layer
//! metrics of [`layers`] instead.  Human-readable lines (metric, value,
//! unit, samples) come first; the last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.  The
//! same object, plus the recorded spans of a traced run, is written under
//! `$CARGO_TARGET_DIR/perfbench/` (else `target/perfbench/`, relative to the
//! working directory), where the WAL and snapshot files of durable passes
//! also live, in a per-process directory removed at exit.  The command exits 1 when the gate fails and
//! 2 on bad arguments.

mod bench;
mod layers;
mod stats;
mod trace;

use bench::{Counters, Ev, Load, Pass, Spec, Tenant};
use service::TuningService;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Set-ups are timed in slices, each of at least one set-up and
/// [`SETUP_SLICE_S`] seconds: one before the first pass and one before every
/// further iteration, so that `setup_s`, the median of all of them, samples
/// the shared host over the whole run as the passes do.
const SETUP_SLICE_S: f64 = 0.25;
/// Saturated passes per latency pass of an open-loop workload: they take
/// about a third of the run.
const SATURATED_PASSES: usize = 2;
/// A run makes at least this many iterations, whatever `--seconds` says,
/// so that a closed-loop run, whose passes take 12-17 s each on a 2-vCPU VM,
/// has several passes to take the best of (see [`run`]).
const MIN_ITERATIONS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where results and scratch files go: `$CARGO_TARGET_DIR/perfbench`, else
/// `target/perfbench` under the working directory.
fn output_base() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench")
}

/// A per-process scratch directory for WAL and snapshot files, removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = output_base().join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh subdirectory for pass `n`; the previous pass's is removed.
    fn pass_dir(&self, n: usize) -> PathBuf {
        let _ = std::fs::remove_dir_all(self.0.join(format!("pass-{}", n - 1)));
        self.0.join(format!("pass-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, for the human-readable report.
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
            value: if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// Books kept across one run: offered events, failures and gate messages.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Count a pass's events; the events of every tenant with a problem
    /// (all of them for a service-wide problem) count as failed.
    fn record(&mut self, events: &[Ev], problems: Vec<(Option<usize>, String)>) {
        self.attempted += events.len() as u64;
        self.fail(events, problems);
    }

    fn fail(&mut self, events: &[Ev], problems: Vec<(Option<usize>, String)>) {
        if problems.is_empty() {
            return;
        }
        let tenants: BTreeSet<Option<usize>> = problems.iter().map(|(t, _)| *t).collect();
        let failed = if tenants.contains(&None) {
            events.len()
        } else {
            events
                .iter()
                .filter(|e| tenants.contains(&Some(e.tenant())))
                .count()
        };
        self.failed = (self.failed + failed as u64).min(self.attempted);
        self.problems.extend(problems.into_iter().map(|(_, p)| p));
    }
}

/// One finished pass and the service it ran on.
struct Done {
    pass: Pass,
    svc: TuningService,
    probes: Vec<bench::Traced>,
    dir: Option<PathBuf>,
}

/// Runs passes over one prepared workload and keeps the gate's books.
struct Runner<'a> {
    spec: &'a Spec,
    tenants: Vec<Tenant>,
    events: Vec<Ev>,
    scratch: Scratch,
    passes: usize,
    counters: Option<Counters>,
    gate: Gate,
}

impl Runner<'_> {
    /// One pass on a fresh service (with persistence in a fresh directory
    /// for durable workloads); checks that every event was applied and that
    /// the deterministic counters repeat.  `saturated` picks the saturated
    /// pass, else the latency pass of the workload's load shape.
    fn pass(&mut self, traced: bool, saturated: bool) -> Done {
        let (spec, tenants, events) = (self.spec, &self.tenants[..], &self.events[..]);
        self.passes += 1;
        let dir = spec.durable().then(|| self.scratch.pass_dir(self.passes));
        let (svc, probes) = bench::assemble(spec, tenants, traced);
        let mut svc = match &dir {
            Some(dir) => svc
                .with_persistence(dir)
                .expect("persistence attaches to a fresh directory"),
            None => svc,
        };
        let pass = match (spec.load, saturated) {
            (Load::Closed, _) => {
                bench::closed_pass(spec, tenants, events, &mut svc, dir.as_deref())
            }
            (Load::Open { .. }, true) => {
                bench::wave_pass(spec, tenants, events, &mut svc, dir.as_deref())
            }
            (Load::Open { rate }, false) => {
                bench::open_pass(spec, tenants, events, &mut svc, dir.as_deref(), rate)
            }
        };
        let mut lat = pass.latency_ms.clone();
        lat.sort_by(f64::total_cmp);
        eprintln!(
            "perfbench: pass {} ({}{}): {} events in {:.3} s, {:.0} events/s, latency p50 {:.3} ms, p99 {:.3} ms (pooled)",
            self.passes,
            if traced { "traced, " } else { "" },
            if saturated { "saturated" } else { "latency" },
            lat.len(),
            pass.wall_s,
            pass.events_per_s(),
            stats::sorted_percentile(&lat, 50.0),
            stats::sorted_percentile(&lat, 99.0),
        );

        self.gate
            .record(events, bench::check_applied(&svc, tenants, events));
        let counters = Counters::of(&svc);
        match &self.counters {
            None => self.counters = Some(counters),
            Some(first) if *first != counters => self.gate.fail(
                events,
                vec![(None, "deterministic counters differ between passes".into())],
            ),
            Some(_) => {}
        }
        Done {
            pass,
            svc,
            probes,
            dir,
        }
    }

    /// Compare `done`'s sessions with a direct replay over plain databases:
    /// cells, and the probe counters when `done` was traced.
    fn check_replay(&mut self, done: &Done) {
        let start = Instant::now();
        let replay = bench::replay(self.spec, &self.tenants, &self.events);
        eprintln!(
            "perfbench: direct replay in {:.3} s",
            start.elapsed().as_secs_f64()
        );
        let mut problems = Vec::new();
        for (i, (id, cell)) in bench::cells(&done.svc).into_iter().enumerate() {
            if replay.cells.get(i) != Some(&cell) {
                problems.push((
                    Some(id.tenant.0 as usize),
                    format!("session {id:?} differs from its direct replay"),
                ));
            }
        }
        for (i, traced) in done.probes.iter().enumerate() {
            let counters = bench::ProbeCounters::of(&traced.probe);
            if replay.probes.get(i) != Some(&counters) {
                problems.push((
                    Some(traced.id.tenant.0 as usize),
                    format!(
                        "session {:?}: traced counters {counters:?} differ from its direct replay's {:?}",
                        traced.id,
                        replay.probes.get(i)
                    ),
                ));
            }
            let repartitions = traced.probe.repartitions.load(Relaxed);
            if replay.repartitions.get(i) != Some(&repartitions) {
                eprintln!(
                    "perfbench: warning: session {:?} repartitioned {repartitions} times, its direct replay {:?}",
                    traced.id,
                    replay.repartitions.get(i)
                );
            }
        }
        self.gate.fail(&self.events, problems);
    }

    /// Kill `done`'s host and restore a freshly assembled one from its
    /// WAL; the cells must come back identical.  Returns the restore time in
    /// ms.  The last snapshot is set aside first: loading it is quadratic in
    /// its size (see [`Runner::snapshot_load_ms`]) and would take minutes at
    /// this workload's final cache size, so the restore replays the whole log
    /// without a checkpoint to verify against.
    fn kill_and_restore(&mut self, done: Done) -> f64 {
        let Done { svc, dir, .. } = done;
        let dir = dir.expect("durable passes persist");
        let before = bench::cells(&svc);
        drop(svc);
        let snapshot = dir.join(service::persist::SNAPSHOT_FILE);
        let aside = std::fs::rename(&snapshot, dir.join("snapshot.set-aside"));
        let (mut fresh, _) = bench::assemble(self.spec, &self.tenants, false);
        let start = Instant::now();
        let report = fresh.restore(&dir);
        let restore_ms = start.elapsed().as_secs_f64() * 1e3;
        let problem = match report {
            _ if aside.is_err() => Some("no snapshot was written".to_string()),
            Err(e) => Some(format!("restore failed: {e}")),
            Ok(r) if r.torn_bytes_discarded != 0 => Some("restore discarded a torn tail".into()),
            Ok(r) if r.events_replayed != self.events.len() as u64 => {
                Some(format!("restore replayed {} events", r.events_replayed))
            }
            Ok(_) if bench::cells(&fresh) != before => Some("restored cells differ".into()),
            Ok(_) => None,
        };
        self.gate.fail(
            &self.events,
            problem.into_iter().map(|p| (None, p)).collect(),
        );
        restore_ms
    }

    /// Time `Snapshot::load` of the run's first snapshot: a fresh durable
    /// service takes the first `snapshot_every` events and snapshots once.
    fn snapshot_load_ms(&mut self) -> f64 {
        let (spec, tenants) = (self.spec, &self.tenants[..]);
        let prefix = &self.events[..spec.snapshot_every.min(self.events.len())];
        self.passes += 1;
        let dir = self.scratch.pass_dir(self.passes);
        let (svc, _) = bench::assemble(spec, tenants, false);
        let mut svc = svc
            .with_persistence(&dir)
            .expect("persistence attaches to a fresh directory");
        bench::wave_pass(spec, tenants, prefix, &mut svc, Some(&dir));
        let start = Instant::now();
        let loaded = service::Snapshot::load(&dir);
        let load_ms = start.elapsed().as_secs_f64() * 1e3;
        if !matches!(loaded, Ok(Some(_))) {
            self.gate.fail(
                prefix,
                vec![(None, format!("snapshot load failed: {:?}", loaded.err()))],
            );
        }
        load_ms
    }
}

/// Everything one run produced.
struct Run {
    metrics: Vec<Metric>,
    gate: Gate,
    spans: Option<String>,
}

/// One slice of timed set-ups (see [`SETUP_SLICE_S`]): prepare the inputs
/// and assemble a service from them, again until the slice is long enough.
/// Each time is pushed onto `times`; the last set-up's inputs are returned.
fn setup_slice(spec: &Spec, seed: u64, times: &mut Vec<f64>) -> Vec<Tenant> {
    let slice = Instant::now();
    loop {
        let start = Instant::now();
        let tenants = bench::prepare(spec, seed);
        drop(bench::assemble(spec, &tenants, false));
        times.push(start.elapsed().as_secs_f64());
        if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            return tenants;
        }
    }
}

fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut setup_s: Vec<f64> = Vec::new();
    let tenants = setup_slice(spec, seed, &mut setup_s);
    let events = bench::schedule(spec, &tenants);
    let statements = events
        .iter()
        .filter(|e| matches!(e, Ev::Query { .. }))
        .count() as u64;
    let mut r = Runner {
        spec,
        tenants,
        events,
        scratch: Scratch::new().expect("scratch directory is creatable"),
        passes: 0,
        counters: None,
        gate: Gate::default(),
    };
    let open = spec.load != Load::Closed;

    if traced {
        // Untraced vs traced saturated passes give the tracing overhead;
        // an open-loop workload's per-layer numbers come from a traced
        // latency pass.
        let untraced = r.pass(false, true).pass.events_per_s();
        let saturated = r.pass(true, true);
        let overhead = untraced / saturated.pass.events_per_s();
        let done = if open {
            drop(saturated);
            r.pass(true, false)
        } else {
            saturated
        };
        r.check_replay(&done);
        let traces = |done: &Done| {
            let t = layers::Traces {
                pass: &done.pass,
                svc: &done.svc,
                probes: &done.probes,
                overhead,
            };
            (layers::metrics(&t), layers::spans_json(&t))
        };
        let (metrics, spans) = if spec.durable() {
            let (mut metrics, spans) = traces(&done);
            let restore_ms = r.kill_and_restore(done);
            let load_ms = r.snapshot_load_ms();
            for m in &mut metrics {
                match m.name {
                    "persist.restore_ms" => *m = Metric::new(m.name, restore_ms, m.unit, 1),
                    "persist.snapshot_load_ms" => *m = Metric::new(m.name, load_ms, m.unit, 1),
                    _ => {}
                }
            }
            (metrics, spans)
        } else {
            traces(&done)
        };
        return Run {
            metrics,
            gate: r.gate,
            spans: Some(spans),
        };
    }

    // An open-loop workload first runs a saturated pass, untimed: the
    // process's heap grows to its working size there instead of in the
    // first timed pass.  Then whole iterations while the next one still fits
    // in `seconds`; at least [`MIN_ITERATIONS`].  An iteration is a slice of
    // set-ups (after the first) and a latency pass, plus, for an open loop,
    // [`SATURATED_PASSES`] saturated passes for throughput.  Each pass's
    // service is dropped before the next pass starts, and the prepared
    // inputs are replaced by the slice's last set-up rather than kept beside
    // it, so the peak resident size is one service's.
    if open {
        r.pass(false, true);
    }
    // A saturated or closed-loop pass runs as fast as the service lets it,
    // so a slower pass only shows the shared host's interference, which on a
    // 2-vCPU VM slows a pass by up to a third for a minute at a time: its
    // throughput and latency percentiles are the best pass's.  An open-loop
    // pass is paced by the schedule, so its latencies are pooled over all
    // latency passes of the run and the percentiles taken over the pool.
    let (mut pooled, mut best, mut rates) = (Vec::new(), [f64::INFINITY; 2], Vec::new());
    let (mut iterations, mut samples, mut applied) = (0, 0, 0);
    let start = Instant::now();
    let last = loop {
        let began = start.elapsed().as_secs_f64();
        if iterations > 0 {
            r.tenants.clear();
            r.tenants = setup_slice(spec, seed, &mut setup_s);
        }
        iterations += 1;
        let mut done = r.pass(false, false);
        if open {
            pooled.extend_from_slice(&done.pass.latency_ms);
        } else {
            best[0] = best[0].min(done.pass.latency(50.0));
            best[1] = best[1].min(done.pass.latency(99.0));
        }
        samples += done.pass.latency_ms.len();
        for _ in 0..if open { SATURATED_PASSES } else { 1 } {
            if open {
                drop(done);
                done = r.pass(false, true);
            }
            rates.push(done.pass.events_per_s());
            applied += done.pass.latency_ms.len();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if iterations >= MIN_ITERATIONS && elapsed + (elapsed - began) > seconds {
            break done;
        }
    };
    // Read before the gate's replay and restore, which are not the
    // workload's.
    let peak_rss = peak_rss_mb();
    r.check_replay(&last);
    if spec.durable() {
        r.kill_and_restore(last);
    }
    let counters = r.counters.clone().expect("at least one pass ran");
    let [p50, p99] = if open {
        [50.0, 99.0].map(|p| stats::percentile(&pooled, p).unwrap_or(0.0))
    } else {
        best
    };
    let metrics = vec![
        Metric::new(
            "events_per_s",
            rates.iter().copied().reduce(f64::max).unwrap_or(0.0),
            "1/s",
            applied,
        ),
        Metric::new("latency_p50_ms", p50, "ms", samples),
        Metric::new("latency_p99_ms", p99, "ms", samples),
        Metric::new(
            "applied_frac",
            1.0 - r.gate.failed as f64 / r.gate.attempted.max(1) as f64,
            "ratio",
            r.gate.attempted as usize,
        ),
        Metric::new(
            "work_per_stmt",
            counters.work_per_stmt(statements),
            "cost",
            statements as usize,
        ),
        Metric::new(
            "whatif_per_stmt",
            counters.whatif_per_stmt(statements),
            "calls",
            statements as usize,
        ),
        Metric::new(
            "setup_s",
            stats::median(&setup_s).unwrap_or(0.0),
            "s",
            setup_s.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss, "MiB", 1),
    ];
    Run {
        metrics,
        gate: r.gate,
        spans: None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper-auto|durable-votes> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let result = run(&spec, args.seed, args.seconds, args.trace);
    let metrics = result.metrics;
    let gate = result.gate;
    let correct = gate.problems.is_empty();
    for p in &gate.problems {
        eprintln!("perfbench: gate: {p}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.attempted, gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        println!(
            "{:<28} {:>16} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    let out = output_base().join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::create_dir_all(output_base());
    let file = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"result\": {json}, \"spans\": {}}}\n",
        spec.name,
        args.seed,
        result.spans.as_deref().unwrap_or("null")
    );
    if let Err(e) = std::fs::write(&out, file) {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
    }
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
