//! The two workloads, the passes that drive them through the service's
//! public API, and the correctness gate.

use crate::trace::{now_ns, Probe, TimedAdvisor, TimedEnv};
use advisors::BruchoChaudhuriAdvisor;
use service::{Event, SessionId, TenantId, TuningService};
use simdb::database::Database;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::query::Statement;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use wfit_core::candidates::offline_selection;
use wfit_core::{IndexAdvisor, TuningEnv, TuningSession, Wfit, WfitConfig};
use workload::{Benchmark, BenchmarkSpec};

/// The advisors serving every tenant of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// One full-WFIT session in auto mode at the paper's §6 defaults.
    Auto,
    /// A WFIT-IND and a BC session over the tenant's offline candidates.
    Pair,
}

/// How the load generator offers events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One caller: parse → submit → poll, then the next statement.
    Closed,
    /// Events fall due at a fixed aggregate rate, whatever the service does.
    Open {
        /// Events per second, all tenants together.
        rate: f64,
    },
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Tenants, each with its own database and workload seed.
    pub tenants: usize,
    /// Statements per workload phase of a tenant.
    pub per_phase: usize,
    /// Advisors per tenant.
    pub fleet: Fleet,
    /// Service worker threads.
    pub workers: usize,
    /// Load shape of the latency pass.
    pub load: Load,
    /// A vote follows every this-many statements of a tenant (0 = none).
    pub vote_every: usize,
    /// Snapshot after every this-many applied events (0 = no persistence).
    pub snapshot_every: usize,
    /// Replay the paper's own workload instance, whatever the run's seed;
    /// otherwise every tenant generates its workload from a seed derived
    /// from the run's seed.  WFIT's cost on the 8-phase workload swings by
    /// a fifth with the statement order alone, far more than the bounds
    /// the benchmark must hold across seeds.
    pub paper_instance: bool,
}

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let durable = Spec {
            name: "durable-votes",
            tenants: 4,
            per_phase: 100,
            fleet: Fleet::Pair,
            workers: 2,
            // About a fifth of the saturated rate (~5.4k events/s on a
            // 2-vCPU VM): at 2000 events/s a host slowdown of 2-3× pushed the
            // service near saturation and the open-loop p50 from 0.3 to 6 ms.
            load: Load::Open { rate: 1000.0 },
            vote_every: 10,
            // The open-loop p99 falls in the stalls of the largest snapshots;
            // with a snapshot every 500 events only two or three of them
            // reach it, and host noise in their length moved the p99 by 0.27
            // (quartile spread over median) from pass to pass, against 0.22
            // every 250 events, where snapshots take about 8% of the
            // latency pass's wall time.
            snapshot_every: 250,
            paper_instance: false,
        };
        match name {
            "paper-auto" => Some(Spec {
                name: "paper-auto",
                tenants: 1,
                per_phase: 200,
                fleet: Fleet::Auto,
                workers: 1,
                load: Load::Closed,
                vote_every: 0,
                snapshot_every: 0,
                paper_instance: true,
            }),
            "durable-votes" => Some(durable),
            _ => None,
        }
    }

    /// The same workload with `per_phase` statements per phase.
    #[cfg(test)]
    pub fn scaled(mut self, per_phase: usize) -> Spec {
        self.per_phase = per_phase;
        self.snapshot_every = self.snapshot_every.min(per_phase * 4);
        self
    }

    /// Whether the workload runs with persistence attached.
    pub fn durable(&self) -> bool {
        self.snapshot_every > 0
    }
}

/// One tenant's prepared inputs.
pub struct Tenant {
    /// The tenant's database; its index registry holds the candidate ids.
    pub db: Arc<Database>,
    /// The tenant's statements as SQL text, in workload order.
    pub sql: Vec<String>,
    /// Offline candidates for fixed-candidate sessions (empty for `Auto`).
    pub candidates: Vec<IndexId>,
}

impl Tenant {
    /// The vote convention: approve the top offline candidate, reject the
    /// last one.
    fn vote(&self) -> (IndexSet, IndexSet) {
        let approve = self.candidates.first().map(|&c| IndexSet::single(c));
        let reject = self.candidates.last().filter(|_| self.candidates.len() > 1);
        (
            approve.unwrap_or_else(IndexSet::empty),
            reject
                .map(|&c| IndexSet::single(c))
                .unwrap_or_else(IndexSet::empty),
        )
    }
}

/// A splitmix64 step: tenant `t`'s workload seed from the run's seed.
pub fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed.wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build every tenant's database and workload, and mine offline candidates
/// for fixed-candidate fleets (through [`Uncached`], so the database's own
/// what-if cache, which the service never reads, stays empty).
pub fn prepare(spec: &Spec, seed: u64) -> Vec<Tenant> {
    (0..spec.tenants)
        .map(|t| {
            let bench = Benchmark::generate(BenchmarkSpec {
                statements_per_phase: spec.per_phase,
                seed: if spec.paper_instance {
                    BenchmarkSpec::paper().seed
                } else {
                    tenant_seed(seed, t)
                },
                phases: workload::default_phases(),
            });
            let db = Arc::new(bench.db);
            let candidates = match spec.fleet {
                Fleet::Auto => Vec::new(),
                Fleet::Pair => {
                    offline_selection(
                        &Uncached(db.clone()),
                        &bench.statements,
                        &WfitConfig::default(),
                    )
                    .candidates
                }
            };
            Tenant {
                db,
                sql: bench.sql,
                candidates,
            }
        })
        .collect()
}

/// The advisor kinds a fleet runs, in session order.
pub fn session_kinds(fleet: Fleet) -> &'static [&'static str] {
    match fleet {
        Fleet::Auto => &["WFIT"],
        Fleet::Pair => &["WFIT-IND", "BC"],
    }
}

fn wfit_ind<E: TuningEnv>(tenant: &Tenant, env: E) -> Wfit<E> {
    let partition = tenant.candidates.iter().map(|&c| vec![c]).collect();
    Wfit::with_fixed_partition(env, WfitConfig::independent(), partition, IndexSet::empty())
        .with_name("WFIT-IND")
}

fn bc<E: TuningEnv>(tenant: &Tenant, env: E) -> BruchoChaudhuriAdvisor<E> {
    BruchoChaudhuriAdvisor::new(env, tenant.candidates.clone(), &IndexSet::empty())
}

/// Build one advisor over `env`, wrapped in timing shims when `probe` is
/// given.
fn advisor<E: TuningEnv + Send + 'static>(
    kind: &str,
    tenant: &Tenant,
    env: E,
    probe: Option<Arc<Probe>>,
) -> Box<dyn IndexAdvisor + Send> {
    match (kind, probe) {
        ("WFIT", None) => Box::new(Wfit::new(env, WfitConfig::default())),
        ("WFIT-IND", None) => Box::new(wfit_ind(tenant, env)),
        ("BC", None) => Box::new(bc(tenant, env)),
        ("WFIT", Some(p)) => Box::new(TimedAdvisor::wfit(
            Wfit::new(TimedEnv::new(env, p.clone()), WfitConfig::default()),
            p,
        )),
        ("WFIT-IND", Some(p)) => Box::new(TimedAdvisor::wfit(
            wfit_ind(tenant, TimedEnv::new(env, p.clone())),
            p,
        )),
        ("BC", Some(p)) => Box::new(TimedAdvisor::new(
            bc(tenant, TimedEnv::new(env, p.clone())),
            p,
        )),
        (other, _) => unreachable!("unknown session kind {other}"),
    }
}

/// A traced session: its id, advisor kind and probe.
pub struct Traced {
    /// The session.
    pub id: SessionId,
    /// Its advisor kind.
    pub kind: &'static str,
    /// What its shims recorded.
    pub probe: Arc<Probe>,
}

/// Assemble a service over `tenants` with the default tenant options, `spec`'s
/// worker count and one session per fleet member.  With `traced` every
/// session is wrapped in shims and listed in the returned vector.
pub fn assemble(spec: &Spec, tenants: &[Tenant], traced: bool) -> (TuningService, Vec<Traced>) {
    let mut svc = TuningService::with_workers(spec.workers);
    let mut probes = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let id = svc.add_tenant(format!("tenant-{t}"), tenant.db.clone());
        for &kind in session_kinds(spec.fleet) {
            let probe = traced.then(|| Arc::new(Probe::default()));
            let session =
                svc.add_session(id, kind, |env| advisor(kind, tenant, env, probe.clone()));
            if let Some(probe) = probe {
                probes.push(Traced {
                    id: session,
                    kind,
                    probe,
                });
            }
        }
    }
    (svc, probes)
}

/// One offered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Tenant `tenant`'s statement `pos`.
    Query {
        /// Tenant index.
        tenant: usize,
        /// Statement position in the tenant's workload.
        pos: usize,
    },
    /// A DBA vote for tenant `tenant`.
    Vote {
        /// Tenant index.
        tenant: usize,
    },
}

impl Ev {
    /// The event's tenant.
    pub fn tenant(self) -> usize {
        match self {
            Ev::Query { tenant, .. } | Ev::Vote { tenant } => tenant,
        }
    }
}

/// The offer order: tenants interleaved round-robin, one statement per
/// turn; a vote follows every `vote_every`-th statement of a tenant.
pub fn schedule(spec: &Spec, tenants: &[Tenant]) -> Vec<Ev> {
    let turns = tenants.iter().map(|t| t.sql.len()).max().unwrap_or(0);
    let mut events = Vec::new();
    for pos in 0..turns {
        for (t, tenant) in tenants.iter().enumerate() {
            if pos < tenant.sql.len() {
                events.push(Ev::Query { tenant: t, pos });
                if spec.vote_every > 0 && (pos + 1) % spec.vote_every == 0 {
                    events.push(Ev::Vote { tenant: t });
                }
            }
        }
    }
    events
}

/// Turn an offered event into a service event; a query is parsed here,
/// from SQL text, against its tenant's database.
fn to_event(tenants: &[Tenant], ev: Ev) -> Event {
    match ev {
        Ev::Query { tenant, pos } => {
            let t = &tenants[tenant];
            let stmt = t.db.parse(&t.sql[pos]).expect("workload SQL parses");
            Event::query(TenantId(tenant as u32), Arc::new(stmt))
        }
        Ev::Vote { tenant } => {
            let (approve, reject) = tenants[tenant].vote();
            Event::vote(TenantId(tenant as u32), approve, reject)
        }
    }
}

/// One `poll` that applied events.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Events it applied.
    pub events: u64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds from the first event's due time (or hand-off) to the
    /// return of the poll that applied the last one.
    pub wall_s: f64,
    /// One end-to-end latency per event, in ms: due time (open loop) or
    /// hand-off (closed loop) until the poll that applied it returned.
    pub latency_ms: Vec<f64>,
    /// One ingress wait per event, in ms: due time or hand-off until the
    /// start of the poll that drained it.
    pub wait_ms: Vec<f64>,
    /// How late the generator offered each event, in ms (open loop only).
    pub lag_ms: Vec<f64>,
    /// Parse time per query, in ns.
    pub parse_ns: Vec<u64>,
    /// `submit` time per event, in ns.
    pub submit_ns: Vec<u64>,
    /// Every poll that applied events.
    pub rounds: Vec<Round>,
    /// Time per snapshot, in ms.
    pub snapshot_ms: Vec<f64>,
    /// Size of the last snapshot, in bytes.
    pub snapshot_bytes: u64,
    /// Size of the WAL at the end of the pass, in bytes.
    pub wal_bytes: u64,
}

impl Pass {
    /// Events applied per wall second.
    pub fn events_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall_s
    }

    /// The `p`-th percentile of the pass's latencies, pooled over all its
    /// events.
    pub fn latency(&self, p: f64) -> f64 {
        crate::stats::percentile(&self.latency_ms, p).unwrap_or(0.0)
    }
}

/// Drives one service through one pass and keeps the books.
struct Recorder<'a> {
    /// Global event indices of each tenant, in offer order.
    per_tenant: Vec<Vec<usize>>,
    applied: Vec<u64>,
    snapshot_every: usize,
    dir: Option<&'a Path>,
    pass: Pass,
}

impl<'a> Recorder<'a> {
    fn new(spec: &Spec, tenants: &[Tenant], events: &[Ev], dir: Option<&'a Path>) -> Self {
        let mut per_tenant = vec![Vec::new(); tenants.len()];
        for (g, ev) in events.iter().enumerate() {
            per_tenant[ev.tenant()].push(g);
        }
        Recorder {
            per_tenant,
            applied: vec![0; tenants.len()],
            snapshot_every: if dir.is_some() {
                spec.snapshot_every
            } else {
                0
            },
            dir,
            pass: Pass::default(),
        }
    }

    /// Run one poll; `origin(g)` is event `g`'s due time or hand-off in
    /// [`now_ns`] time.  Returns the events applied.
    fn poll(&mut self, svc: &mut TuningService, origin: impl Fn(usize) -> u64) -> u64 {
        let start = now_ns();
        let events = svc.poll().events;
        let end = now_ns();
        if events == 0 {
            return 0;
        }
        self.pass.rounds.push(Round { start, end, events });
        for (t, seen) in self.applied.iter_mut().enumerate() {
            let now = svc.tenant_processed(TenantId(t as u32));
            for &g in &self.per_tenant[t][*seen as usize..now as usize] {
                let o = origin(g);
                self.pass.latency_ms.push((end - o) as f64 / 1e6);
                self.pass.wait_ms.push(start.saturating_sub(o) as f64 / 1e6);
            }
            *seen = now;
        }
        let done = self.pass.latency_ms.len();
        if self.snapshot_every > 0
            && done / self.snapshot_every > (done - events as usize) / self.snapshot_every
        {
            let start = now_ns();
            svc.snapshot().expect("snapshot of a healthy service");
            self.pass.snapshot_ms.push((now_ns() - start) as f64 / 1e6);
        }
        events
    }

    fn finish(mut self, first: u64, last_end: u64) -> Pass {
        self.pass.wall_s = (last_end - first) as f64 / 1e9;
        if let Some(dir) = self.dir {
            let size = |f: &str| std::fs::metadata(dir.join(f)).map(|m| m.len()).unwrap_or(0);
            self.pass.wal_bytes = size(service::persist::WAL_FILE);
            self.pass.snapshot_bytes = size(service::persist::SNAPSHOT_FILE);
        }
        self.pass
    }
}

/// Closed loop, one caller: each event is parsed, submitted and polled
/// before the next is handed off.
pub fn closed_pass(
    spec: &Spec,
    tenants: &[Tenant],
    events: &[Ev],
    svc: &mut TuningService,
    dir: Option<&Path>,
) -> Pass {
    let mut d = Recorder::new(spec, tenants, events, dir);
    let mut handoff = vec![0u64; events.len()];
    let first = now_ns();
    for (g, &ev) in events.iter().enumerate() {
        handoff[g] = now_ns();
        let event = to_event(tenants, ev);
        let parsed = now_ns();
        svc.submit(event);
        let submitted = now_ns();
        if matches!(ev, Ev::Query { .. }) {
            d.pass.parse_ns.push(parsed - handoff[g]);
        }
        d.pass.submit_ns.push(submitted - parsed);
        d.poll(svc, |g| handoff[g]);
    }
    let last = d.pass.rounds.last().map_or(first, |r| r.end);
    d.finish(first, last)
}

/// Events per poll round in the saturated pass.
pub const WAVE: usize = 16;

/// Saturated: one caller hands off [`WAVE`] events, polls once, and repeats;
/// every round is full.
pub fn wave_pass(
    spec: &Spec,
    tenants: &[Tenant],
    events: &[Ev],
    svc: &mut TuningService,
    dir: Option<&Path>,
) -> Pass {
    let mut d = Recorder::new(spec, tenants, events, dir);
    let mut handoff = vec![0u64; events.len()];
    let first = now_ns();
    for (w, chunk) in events.chunks(WAVE).enumerate() {
        for (i, &ev) in chunk.iter().enumerate() {
            let g = w * WAVE + i;
            handoff[g] = now_ns();
            let event = to_event(tenants, ev);
            let parsed = now_ns();
            svc.submit(event);
            if matches!(ev, Ev::Query { .. }) {
                d.pass.parse_ns.push(parsed - handoff[g]);
            }
            d.pass.submit_ns.push(now_ns() - parsed);
        }
        d.poll(svc, |g| handoff[g]);
    }
    let last = d.pass.rounds.last().map_or(first, |r| r.end);
    d.finish(first, last)
}

/// Open loop: event `g` falls due `g / rate` seconds into the pass.  One
/// thread offers every due event and then polls; while nothing is pending it
/// waits for the next due time, so it never competes with the service's
/// workers for a core (they run only inside `poll`, while it waits on them).
pub fn open_pass(
    spec: &Spec,
    tenants: &[Tenant],
    events: &[Ev],
    svc: &mut TuningService,
    dir: Option<&Path>,
    rate: f64,
) -> Pass {
    let mut d = Recorder::new(spec, tenants, events, dir);
    let base = now_ns() + 1_000_000;
    let interval_ns = 1e9 / rate;
    let due_ns = |g: usize| base + (g as f64 * interval_ns) as u64;
    let mut next = 0;
    while next < events.len() || svc.pending() > 0 {
        let now = now_ns();
        while next < events.len() && due_ns(next) <= now {
            let start = now_ns();
            d.pass.lag_ms.push((start - due_ns(next)) as f64 / 1e6);
            let event = to_event(tenants, events[next]);
            let parsed = now_ns();
            svc.submit(event);
            if matches!(events[next], Ev::Query { .. }) {
                d.pass.parse_ns.push(parsed - start);
            }
            d.pass.submit_ns.push(now_ns() - parsed);
            next += 1;
        }
        if svc.pending() > 0 {
            d.poll(svc, due_ns);
        } else if next < events.len() {
            // Sleep through most of an idle gap, then spin to the due time.
            let gap = due_ns(next).saturating_sub(now_ns());
            if gap > 200_000 {
                std::thread::sleep(Duration::from_nanos(gap - 150_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    let last = d.pass.rounds.last().map_or(base, |r| r.end);
    d.finish(base, last)
}

/// The per-session accounting a pass leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Queries the session applied.
    pub queries: u64,
    /// Votes the session applied.
    pub votes: u64,
    /// Total work, as bits.
    pub total_work: u64,
    /// What-if requests the session issued.
    pub whatif: u64,
    /// The final recommendation.
    pub recommendation: IndexSet,
    /// The cumulative total-work series, as bits.
    pub series: Vec<u64>,
}

/// Every session's cell, in session order.
pub fn cells(svc: &TuningService) -> Vec<(SessionId, Cell)> {
    svc.session_ids()
        .into_iter()
        .map(|id| {
            let stats = svc.session_stats(id);
            let cell = Cell {
                queries: stats.queries,
                votes: stats.votes,
                total_work: stats.total_work.to_bits(),
                whatif: svc.session_whatif_requests(id),
                recommendation: svc.recommendation(id),
                series: svc.cost_series(id).iter().map(|c| c.to_bits()).collect(),
            };
            (id, cell)
        })
        .collect()
}

/// Check a pass's service: every offered event applied exactly once by
/// every session of its tenant, nothing pending, no faults.  Returns one
/// message per problem, tagged with the tenant it concerns (`None` for the
/// whole service).
pub fn check_applied(
    svc: &TuningService,
    tenants: &[Tenant],
    events: &[Ev],
) -> Vec<(Option<usize>, String)> {
    let mut problems = Vec::new();
    let stats = svc.ingress_stats();
    if svc.pending() != 0 || stats.pending != 0 {
        problems.push((None, format!("{} events left pending", stats.pending)));
    }
    if let Some(fault) = svc.persist_fault() {
        problems.push((None, format!("persistence fault: {fault}")));
    }
    for id in svc.faulted_sessions() {
        problems.push((
            Some(id.tenant.0 as usize),
            format!("session {id:?} faulted"),
        ));
    }
    for t in 0..tenants.len() {
        let queries = events
            .iter()
            .filter(|e| matches!(e, Ev::Query { tenant, .. } if *tenant == t))
            .count() as u64;
        let votes = events
            .iter()
            .filter(|e| matches!(e, Ev::Vote { tenant } if *tenant == t))
            .count() as u64;
        let tid = TenantId(t as u32);
        if svc.tenant_processed(tid) != queries + votes {
            problems.push((
                Some(t),
                format!(
                    "tenant {t}: {} of {} events applied",
                    svc.tenant_processed(tid),
                    queries + votes
                ),
            ));
        }
        for (id, cell) in cells(svc).into_iter().filter(|(id, _)| id.tenant == tid) {
            if cell.queries != queries || cell.votes != votes || cell.series.len() as u64 != queries
            {
                problems.push((
                    Some(t),
                    format!(
                        "session {id:?}: applied {} queries and {} votes of {queries} and {votes}",
                        cell.queries, cell.votes
                    ),
                ));
            }
        }
    }
    problems
}

/// Deterministic counters of one replay of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Σ of every session's total work, as bits.
    pub total_work: Vec<u64>,
    /// Every session's what-if requests.
    pub whatif: Vec<u64>,
}

impl Counters {
    /// The counters of a service after a pass.
    pub fn of(svc: &TuningService) -> Counters {
        let cells = cells(svc);
        Counters {
            total_work: cells.iter().map(|(_, c)| c.total_work).collect(),
            whatif: cells.iter().map(|(_, c)| c.whatif).collect(),
        }
    }

    /// Σ total work per statement.
    pub fn work_per_stmt(&self, statements: u64) -> f64 {
        self.total_work
            .iter()
            .map(|&b| f64::from_bits(b))
            .sum::<f64>()
            / statements as f64
    }

    /// What-if requests per statement.
    pub fn whatif_per_stmt(&self, statements: u64) -> f64 {
        self.whatif.iter().sum::<u64>() as f64 / statements as f64
    }
}

/// Probe counters that must repeat exactly (per session).
///
/// WFIT's repartition count is not among them: `ibg::partition_loss` sums
/// interaction weights in `HashMap` order, which differs between map
/// instances, so near-tied candidate partitions can swap places and the
/// count varies by a few between processes on identical input, while the
/// states and every cost cell stay bit-equal.  [`Replay::repartitions`]
/// keeps it for a warning.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCounters {
    /// WFA state updates.
    pub state_updates: u64,
    /// IBG nodes built.
    pub ibg_nodes: u64,
    /// IBGs built.
    pub ibg_builds: u64,
}

impl ProbeCounters {
    /// Read a probe.
    pub fn of(probe: &Probe) -> ProbeCounters {
        use std::sync::atomic::Ordering::Relaxed;
        ProbeCounters {
            state_updates: probe.state_updates.load(Relaxed),
            ibg_nodes: probe.ibg_nodes.load(Relaxed),
            ibg_builds: probe.ibg_builds.load(Relaxed),
        }
    }
}

/// A plain `Database` as a [`TuningEnv`] whose what-if calls bypass the
/// database's own cache, as a service tenant's do: the offline candidate
/// selection and the direct replay then leave no cache behind that the
/// service would never read.
pub struct Uncached(pub Arc<Database>);

impl TuningEnv for Uncached {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        self.0.whatif_cost_uncached(stmt, config)
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        self.0.create_cost(id)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        self.0.drop_cost(id)
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        self.0.transition_cost(from, to)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        self.0.extract_candidates(stmt)
    }

    fn describe_index(&self, id: IndexId) -> String {
        self.0.index_name(id)
    }
}

/// A direct replay of every session outside the service: a
/// `wfit_core::TuningSession` per session over the tenant's plain
/// `Database` (through [`Uncached`]), fed the tenant's events in offer
/// order.
pub struct Replay {
    /// One cell per session, in service session order.
    pub cells: Vec<Cell>,
    /// One set of probe counters per session, same order.
    pub probes: Vec<ProbeCounters>,
    /// WFIT repartitions per session, same order (see [`ProbeCounters`]).
    pub repartitions: Vec<u64>,
}

/// Replay every session directly (see [`Replay`]).
pub fn replay(spec: &Spec, tenants: &[Tenant], events: &[Ev]) -> Replay {
    let mut cells = Vec::new();
    let mut probes = Vec::new();
    let mut repartitions = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        for &kind in session_kinds(spec.fleet) {
            let probe = Arc::new(Probe::default());
            let env = TimedEnv::new(Uncached(tenant.db.clone()), probe.clone());
            let advisor = advisor(
                kind,
                tenant,
                Uncached(tenant.db.clone()),
                Some(probe.clone()),
            );
            let mut session = TuningSession::new(env, advisor);
            for ev in events.iter().filter(|e| e.tenant() == t) {
                match *ev {
                    Ev::Query { pos, .. } => {
                        let stmt = tenant
                            .db
                            .parse(&tenant.sql[pos])
                            .expect("workload SQL parses");
                        session.submit_query(&stmt);
                    }
                    Ev::Vote { .. } => {
                        let (approve, reject) = tenant.vote();
                        session.vote(&approve, &reject);
                    }
                }
            }
            let stats = session.stats();
            use std::sync::atomic::Ordering::Relaxed;
            cells.push(Cell {
                queries: stats.queries,
                votes: stats.votes,
                total_work: stats.total_work.to_bits(),
                whatif: probe.whatif_calls.load(Relaxed),
                recommendation: session.recommendation(),
                series: session.cost_series().iter().map(|c| c.to_bits()).collect(),
            });
            probes.push(ProbeCounters::of(&probe));
            repartitions.push(probe.repartitions.load(Relaxed));
        }
    }
    Replay {
        cells,
        probes,
        repartitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory under the package's `target/`.
    fn scratch(name: &str) -> std::path::PathBuf {
        std::path::PathBuf::from("target")
            .join(format!("perfbench-test-{}-{name}", std::process::id()))
    }

    fn tiny(name: &str) -> (Spec, Vec<Tenant>, Vec<Ev>) {
        let spec = Spec::named(name).expect("known workload").scaled(2);
        let tenants = prepare(&spec, 7);
        let events = schedule(&spec, &tenants);
        (spec, tenants, events)
    }

    #[test]
    fn schedules_interleave_tenants_with_votes() {
        let (spec, _, events) = tiny("durable-votes");
        assert!((0..spec.tenants).all(|t| events
            .iter()
            .filter(|e| matches!(e, Ev::Query { tenant, .. } if *tenant == t))
            .count()
            == 16));
        // Round-robin, one statement per tenant and turn.
        assert_eq!(
            events[..5].iter().map(|e| e.tenant()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 0]
        );
        let votes = events
            .iter()
            .filter(|e| matches!(e, Ev::Vote { .. }))
            .count();
        assert_eq!(votes, 4, "one vote per tenant after its 10th statement");
        let first_vote = events
            .iter()
            .position(|e| matches!(e, Ev::Vote { tenant: 0 }))
            .unwrap();
        assert_eq!(events[first_vote - 1], Ev::Query { tenant: 0, pos: 9 });
    }

    #[test]
    fn every_pass_takes_one_latency_sample_per_event() {
        for name in ["paper-auto", "durable-votes"] {
            let (spec, tenants, events) = tiny(name);
            let rate = match spec.load {
                Load::Open { rate } => rate,
                Load::Closed => 2000.0,
            };
            for (k, kind) in ["closed", "wave", "open"].into_iter().enumerate() {
                let dir = scratch(&format!("{name}-{k}"));
                let (svc, _) = assemble(&spec, &tenants, false);
                let mut svc = if spec.durable() {
                    svc.with_persistence(&dir).unwrap()
                } else {
                    svc
                };
                let d = spec.durable().then_some(dir.as_path());
                let pass = match kind {
                    "closed" => closed_pass(&spec, &tenants, &events, &mut svc, d),
                    "wave" => wave_pass(&spec, &tenants, &events, &mut svc, d),
                    _ => open_pass(&spec, &tenants, &events, &mut svc, d, rate),
                };
                let _ = std::fs::remove_dir_all(&dir);
                assert_eq!(pass.latency_ms.len(), events.len(), "{name} {kind}");
                assert_eq!(pass.wait_ms.len(), events.len(), "{name} {kind}");
                assert_eq!(pass.submit_ns.len(), events.len(), "{name} {kind}");
                let applied: u64 = pass.rounds.iter().map(|r| r.events).sum();
                assert_eq!(applied, events.len() as u64, "{name} {kind}");
                assert!(
                    check_applied(&svc, &tenants, &events).is_empty(),
                    "{name} {kind}"
                );
                if kind == "open" {
                    assert_eq!(pass.lag_ms.len(), events.len(), "{name} {kind}");
                }
                if spec.durable() {
                    assert!(
                        !pass.snapshot_ms.is_empty() && pass.wal_bytes > 0,
                        "{name} {kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_and_untraced_services_agree_with_the_direct_replay() {
        for name in ["paper-auto", "durable-votes"] {
            let (spec, tenants, events) = tiny(name);
            let reference = replay(&spec, &tenants, &events);
            for traced in [false, true] {
                let (mut svc, probes) = assemble(&spec, &tenants, traced);
                wave_pass(&spec, &tenants, &events, &mut svc, None);
                let cells: Vec<Cell> = cells(&svc).into_iter().map(|(_, c)| c).collect();
                assert_eq!(cells, reference.cells, "{name} traced={traced}");
                let counters: Vec<ProbeCounters> =
                    probes.iter().map(|p| ProbeCounters::of(&p.probe)).collect();
                if traced {
                    assert_eq!(counters, reference.probes, "{name}");
                }
            }
        }
    }
}
