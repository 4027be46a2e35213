//! Deterministic cross-tenant work-stealing: planning a drain round.
//!
//! A drain round starts from a snapshot of per-tenant queue depths (taken by
//! [`crate::ingress::Ingress::drain_all`]).  The historical scheduler pinned
//! every tenant to one worker for the whole round, so a skewed event
//! distribution — one hot tenant, many cold ones — serialized behind a
//! single thread while the other workers idled.  This module replaces the
//! pinned assignment with **work-stealing at session-run granularity**:
//!
//! * the unit of scheduling is a **session-run** — one session of a tenant
//!   replaying the tenant's whole event run for the round.  A tenant with
//!   `S` sessions and `d` pending events is `S` runs of weight `d`;
//! * the initial ("home") assignment places each tenant's runs on the
//!   lightest worker, exactly like the pinned scheduler;
//! * the steal pass then moves individual session-runs from the most-loaded
//!   worker to the least-loaded one while doing so shrinks the makespan.
//!
//! Three invariants keep the result bit-deterministic (see
//! `ARCHITECTURE.md`):
//!
//! 1. **Sessions are never split** — a session-run replays its session's
//!    events sequentially on one worker; stealing moves whole runs only.
//! 2. **Per-session event order is preserved** — every session still sees
//!    its tenant's events in submission order, so session state (and every
//!    cost-derived metric) is identical to a single-threaded replay.
//! 3. **Victim choice is a pure function of queue depths** — the whole plan
//!    (home bins, steal sequence, steal counters, load imbalance) is
//!    computed from the depth snapshot before any event is processed, never
//!    from wall-clock progress, so steal counters are golden-testable.
//!
//! What stealing deliberately does *not* promise: with a shared IBG store,
//! concurrently-running session-runs of one tenant race on it, so the
//! build/reuse *split* of its counters (and with it the per-session
//! what-if counts) becomes timing-dependent.  Costs never change — a reused
//! graph is identical to a fresh build — and with stealing disabled the
//! historical sequential drain (and all its counters) is reproduced
//! exactly.

/// Scheduling knobs of one drain round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum workers draining concurrently.
    pub workers: usize,
    /// Whether the steal pass runs (false = historical pinned bins).
    pub steal: bool,
}

/// One tenant's contribution to a drain round: its queue-depth snapshot and
/// session count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    /// Tenant index in the service registry.
    pub tenant: usize,
    /// Events pending for the tenant in this round.
    pub depth: usize,
    /// Sessions registered for the tenant (each becomes one session-run).
    pub sessions: usize,
}

impl TenantLoad {
    /// Session-runs this tenant contributes (a session-less tenant still
    /// needs one pseudo-run to consume its events).
    fn runs(&self) -> usize {
        self.sessions.max(1)
    }

    /// Total scheduled weight: every session replays every event.
    fn weight(&self) -> u64 {
        (self.depth * self.runs()) as u64
    }
}

/// Where one tenant's session-runs execute in a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// All runs on one worker: the tenant drains grouped (session-major
    /// batching, IBG generations advanced per batch) — the exact historical
    /// execution path.
    Whole {
        /// The worker draining the tenant.
        worker: usize,
    },
    /// Runs spread across workers (`workers[s]` = worker of session `s`):
    /// each session replays the event run independently.
    Split {
        /// Worker index per session, in session order.
        workers: Vec<usize>,
    },
}

/// The deterministic outcome of planning one drain round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePlan {
    /// `(tenant, placement)` for every tenant with pending events, in
    /// tenant order.
    pub placements: Vec<(usize, Placement)>,
    /// Workers the plan actually uses (≤ the configured maximum).
    pub workers_used: usize,
    /// Session-runs scheduled in the round.
    pub session_runs: u64,
    /// Session-runs moved off their home worker by the steal pass.
    pub stolen_runs: u64,
    /// Largest planned per-worker load (in event-replays).
    pub max_load: u64,
    /// Total planned load across workers (in event-replays).
    pub total_load: u64,
}

impl SchedulePlan {
    /// An empty plan (no pending events).
    pub fn empty() -> Self {
        Self {
            placements: Vec::new(),
            workers_used: 0,
            session_runs: 0,
            stolen_runs: 0,
            max_load: 0,
            total_load: 0,
        }
    }

    /// Planned load imbalance: `max_load / (total_load / workers_used)`.
    /// 1.0 is a perfectly even split; the pinned scheduler on a skewed
    /// snapshot approaches `workers_used`.  Returns 1.0 for an empty plan.
    pub fn imbalance(&self) -> f64 {
        if self.total_load == 0 || self.workers_used == 0 {
            1.0
        } else {
            self.max_load as f64 * self.workers_used as f64 / self.total_load as f64
        }
    }
}

/// Cumulative scheduler counters across a service's drain rounds.  All
/// values are pure functions of the per-round queue-depth snapshots, so they
/// are deterministic whenever submission order is (and golden-testable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedStats {
    /// Drain rounds that processed at least one event.
    pub rounds: u64,
    /// Session-runs scheduled across all rounds.
    pub session_runs: u64,
    /// Session-runs executed away from their home worker.
    pub stolen_runs: u64,
    /// Largest per-tenant queue depth observed at any round start.
    pub max_queue_depth: u64,
    /// Worst planned load imbalance across rounds (see
    /// [`SchedulePlan::imbalance`]); 1.0 when no round ran.
    pub max_imbalance: f64,
    /// Epoch segments executed across all rounds (0 unless epoch
    /// re-planning is enabled; see [`epoch_plan`]).
    pub epochs: u64,
    /// Mid-round re-planning decisions: segments whose placement was
    /// recomputed against the completed-weight ledger (`epochs - rounds`
    /// for epoch rounds, since the first segment of a round is the initial
    /// plan, not a re-plan).
    pub replans: u64,
}

impl Default for SchedStats {
    fn default() -> Self {
        Self {
            rounds: 0,
            session_runs: 0,
            stolen_runs: 0,
            max_queue_depth: 0,
            // 1.0 = perfectly fair, the documented floor of the scale — so
            // a service that never polled does not report a nonsensical
            // "better than perfect" 0.0.
            max_imbalance: 1.0,
            epochs: 0,
            replans: 0,
        }
    }
}

impl SchedStats {
    /// Fold one round's plan (and its depth snapshot) into the counters.
    pub fn absorb_round(&mut self, plan: &SchedulePlan, max_depth: u64) {
        self.rounds += 1;
        self.session_runs += plan.session_runs;
        self.stolen_runs += plan.stolen_runs;
        self.max_queue_depth = self.max_queue_depth.max(max_depth);
        self.max_imbalance = self.max_imbalance.max(plan.imbalance());
    }

    /// Fold one epoch-mode round into the counters.
    pub fn absorb_epoch_round(&mut self, plan: &EpochPlan, max_depth: u64) {
        self.rounds += 1;
        self.session_runs += plan.session_runs;
        self.max_queue_depth = self.max_queue_depth.max(max_depth);
        self.max_imbalance = self.max_imbalance.max(plan.imbalance());
        self.epochs += plan.epochs();
        self.replans += plan.replans();
    }
}

/// One tenant's share of an epoch segment: `runs` consecutive session-runs
/// starting at `first_session`, all on one worker.  Keeping a tenant's
/// segment-runs on a single worker (and tenants unique within a segment)
/// means a tenant's sessions never execute concurrently in epoch mode — its
/// IBG-store counters stay a pure function of the event order even with
/// many workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochChunk {
    /// Tenant index in the service registry.
    pub tenant: usize,
    /// First session index of the chunk (sessions are consumed in order
    /// across segments, so runs are never split or duplicated).
    pub first_session: usize,
    /// Session-runs in the chunk (≥ 1).
    pub runs: usize,
    /// Worker executing the chunk.
    pub worker: usize,
}

/// One epoch segment: chunks that execute concurrently, followed by a
/// barrier before the next segment is released.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochSegment {
    /// The segment's chunks, in tenant order.  Each tenant appears at most
    /// once.
    pub chunks: Vec<EpochChunk>,
}

/// The deterministic outcome of epoch-planning one drain round: session-runs
/// cut into weight-balanced segments, each segment's chunks placed against
/// the cumulative completed-weight of every worker bin.  Because execution
/// is deterministic, the planned completed-weight ledger *is* the actual
/// one, so re-planning at each boundary corrects real skew (a bin that
/// absorbed a heavy chunk receives less later work) without any wall-clock
/// feedback.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Segments in execution order.
    pub segments: Vec<EpochSegment>,
    /// Workers the plan uses (≤ the configured maximum).
    pub workers_used: usize,
    /// Session-runs scheduled across all segments.
    pub session_runs: u64,
    /// Largest cumulative per-worker load (in event-replays).
    pub max_load: u64,
    /// Total load across workers (in event-replays).
    pub total_load: u64,
}

impl EpochPlan {
    /// Epoch segments in the round.
    pub fn epochs(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Re-planning decisions: every segment after the first re-places
    /// against the completed-weight ledger.
    pub fn replans(&self) -> u64 {
        (self.segments.len() as u64).saturating_sub(1)
    }

    /// Cumulative load imbalance across the whole round (same scale as
    /// [`SchedulePlan::imbalance`]).
    pub fn imbalance(&self) -> f64 {
        if self.total_load == 0 || self.workers_used == 0 {
            1.0
        } else {
            self.max_load as f64 * self.workers_used as f64 / self.total_load as f64
        }
    }
}

/// Plan one drain round with epoch re-planning: cut the round's session-runs
/// into segments of roughly `total_weight / ceil(total_runs / epoch_runs)`
/// event-replays each (so the boundary falls every ~`epoch_runs` completed
/// runs, weighted by actual cost), and place each segment's chunks on the
/// least-loaded worker **by cumulative completed weight** — the bins carry
/// the weight of every earlier segment, which is what makes the second and
/// later segments genuine re-plans rather than a static split.
///
/// The plan is a pure function of `loads`, `config` and `epoch_runs`:
/// tenants are taken heaviest-remaining-first (ties toward the lower id),
/// every chunk lands on the least-loaded bin (ties toward the lower worker
/// index), and each segment takes at least one run, so the plan always
/// terminates with every run placed exactly once.
pub fn epoch_plan(loads: &[TenantLoad], config: &SchedulerConfig, epoch_runs: usize) -> EpochPlan {
    let busy: Vec<TenantLoad> = loads.iter().filter(|l| l.depth > 0).copied().collect();
    if busy.is_empty() {
        return EpochPlan {
            segments: Vec::new(),
            workers_used: 0,
            session_runs: 0,
            max_load: 0,
            total_load: 0,
        };
    }
    let total_runs: usize = busy.iter().map(|l| l.runs()).sum();
    let total_weight: u64 = busy.iter().map(|l| l.weight()).sum();
    let workers_used = config.workers.max(1).min(total_runs).max(1);
    let epoch_runs = epoch_runs.max(1);
    let segments_target = total_runs.div_ceil(epoch_runs).max(1);
    let segment_weight = total_weight.div_ceil(segments_target as u64).max(1);

    // remaining[i] = session-runs of busy tenant i not yet placed;
    // next_session[i] = first unplaced session index.
    let mut remaining: Vec<usize> = busy.iter().map(|l| l.runs()).collect();
    let mut next_session: Vec<usize> = vec![0; busy.len()];
    let mut bin_load = vec![0u64; workers_used];
    let mut segments = Vec::new();

    while remaining.iter().any(|&r| r > 0) {
        // Re-plan: order tenants by remaining weight, heaviest first (ties
        // toward the lower tenant id).
        let mut order: Vec<usize> = (0..busy.len()).filter(|&i| remaining[i] > 0).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(remaining[i] as u64 * busy[i].depth as u64),
                busy[i].tenant,
            )
        });
        let mut segment = EpochSegment::default();
        let mut quota = segment_weight;
        for &i in &order {
            if quota == 0 && !segment.chunks.is_empty() {
                break;
            }
            let per_run = busy[i].depth as u64;
            // Take enough runs to cover the remaining quota (at least one).
            let take = remaining[i].min((quota.div_ceil(per_run) as usize).max(1));
            let worker = bin_load
                .iter()
                .enumerate()
                .min_by_key(|&(w, &l)| (l, w))
                .map(|(w, _)| w)
                .unwrap_or(0);
            let chunk_weight = take as u64 * per_run;
            bin_load[worker] += chunk_weight;
            quota = quota.saturating_sub(chunk_weight);
            segment.chunks.push(EpochChunk {
                tenant: busy[i].tenant,
                first_session: next_session[i],
                runs: take,
                worker,
            });
            next_session[i] += take;
            remaining[i] -= take;
        }
        segment.chunks.sort_by_key(|c| c.tenant);
        segments.push(segment);
    }

    EpochPlan {
        segments,
        workers_used,
        session_runs: total_runs as u64,
        max_load: bin_load.iter().copied().max().unwrap_or(0),
        total_load: bin_load.iter().sum(),
    }
}

/// Plan one drain round: home-assign tenants to workers
/// (heaviest-tenant-first onto the lightest bin), then — when `steal` is on
/// and more than one worker runs — move session-runs from the most-loaded
/// worker to the least-loaded one while each move strictly shrinks the
/// makespan.
///
/// The plan is a pure function of `loads` and `config`: ties break toward
/// the lower worker index / lower tenant id / higher session index, and no
/// wall-clock information enters.  Callers hand the returned placements to
/// the execution layer unchanged.
pub fn plan(loads: &[TenantLoad], config: &SchedulerConfig) -> SchedulePlan {
    let mut busy: Vec<TenantLoad> = loads.iter().filter(|l| l.depth > 0).copied().collect();
    if busy.is_empty() {
        return SchedulePlan::empty();
    }
    // Heaviest first; ties by tenant id so the order is a pure function of
    // the depth snapshot.
    busy.sort_by_key(|l| (std::cmp::Reverse(l.weight()), l.tenant));

    let total_runs: usize = busy.iter().map(|l| l.runs()).sum();
    let max_workers = config.workers.max(1);
    // Without stealing a worker can only hold whole tenants; with stealing
    // every session-run can occupy its own worker.
    let workers_used = if config.steal {
        max_workers.min(total_runs)
    } else {
        max_workers.min(busy.len())
    }
    .max(1);

    // Home assignment: lightest bin first (ties: lowest worker index).
    let mut bin_load = vec![0u64; workers_used];
    // run_worker[i][s] = worker of session-run `s` of busy tenant `i`.
    let mut run_worker: Vec<Vec<usize>> = Vec::with_capacity(busy.len());
    let mut home: Vec<usize> = Vec::with_capacity(busy.len());
    for load in &busy {
        let lightest = bin_load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(w, _)| w)
            .unwrap_or(0);
        bin_load[lightest] += load.weight();
        home.push(lightest);
        run_worker.push(vec![lightest; load.runs()]);
    }

    let mut stolen_runs = 0u64;
    if config.steal && workers_used > 1 {
        loop {
            let (max_w, &max_l) = bin_load
                .iter()
                .enumerate()
                .max_by_key(|&(w, &l)| (l, std::cmp::Reverse(w)))
                .unwrap();
            let (min_w, &min_l) = bin_load
                .iter()
                .enumerate()
                .min_by_key(|&(w, &l)| (l, w))
                .unwrap();
            if max_w == min_w {
                break;
            }
            // Candidate: the heaviest run on the max-loaded worker whose
            // move strictly improves the makespan; ties toward the lower
            // tenant id.  Within a tenant the highest-index run moves first,
            // so session 0 gravitates home.
            let mut candidate: Option<(u64, usize, usize)> = None; // (weight, busy idx, run idx)
            for (i, load) in busy.iter().enumerate() {
                let w = load.depth as u64;
                if w == 0 || min_l + w >= max_l {
                    continue;
                }
                if let Some(&(cw, _, _)) = candidate.as_ref() {
                    if w <= cw {
                        continue;
                    }
                }
                if let Some(run) = run_worker[i].iter().rposition(|&rw| rw == max_w) {
                    candidate = Some((w, i, run));
                }
            }
            let Some((w, i, run)) = candidate else { break };
            run_worker[i][run] = min_w;
            bin_load[max_w] -= w;
            bin_load[min_w] += w;
            stolen_runs += 1;
        }
    }

    // Assemble placements in tenant order.
    let mut order: Vec<usize> = (0..busy.len()).collect();
    order.sort_by_key(|&i| busy[i].tenant);
    let placements = order
        .into_iter()
        .map(|i| {
            let workers = &run_worker[i];
            let placement = if workers.iter().all(|&w| w == workers[0]) {
                Placement::Whole { worker: workers[0] }
            } else {
                Placement::Split {
                    workers: workers.clone(),
                }
            };
            (busy[i].tenant, placement)
        })
        .collect();

    SchedulePlan {
        placements,
        workers_used,
        session_runs: total_runs as u64,
        stolen_runs,
        max_load: bin_load.iter().copied().max().unwrap_or(0),
        total_load: bin_load.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(tenant: usize, depth: usize, sessions: usize) -> TenantLoad {
        TenantLoad {
            tenant,
            depth,
            sessions,
        }
    }

    fn cfg(workers: usize, steal: bool) -> SchedulerConfig {
        SchedulerConfig { workers, steal }
    }

    #[test]
    fn empty_snapshot_plans_nothing() {
        let plan = plan(&[load(0, 0, 3)], &cfg(4, true));
        assert_eq!(plan, SchedulePlan::empty());
        assert_eq!(plan.imbalance(), 1.0);
    }

    #[test]
    fn pinned_mode_never_splits_a_tenant() {
        let loads = [load(0, 80, 3), load(1, 10, 3), load(2, 10, 3)];
        let plan = plan(&loads, &cfg(4, false));
        assert_eq!(plan.stolen_runs, 0);
        assert_eq!(plan.workers_used, 3, "capped by tenant count");
        for (_, placement) in &plan.placements {
            assert!(matches!(placement, Placement::Whole { .. }));
        }
        // The hot tenant dominates one worker: imbalance near workers_used.
        assert!(plan.imbalance() > 2.0, "imbalance {}", plan.imbalance());
    }

    #[test]
    fn stealing_splits_the_hot_tenant_and_flattens_the_makespan() {
        let loads = [load(0, 80, 3), load(1, 10, 3), load(2, 10, 3)];
        let pinned = plan(&loads, &cfg(4, false));
        let stolen = plan(&loads, &cfg(4, true));
        assert!(stolen.stolen_runs > 0);
        assert!(stolen.max_load < pinned.max_load);
        assert!(stolen.imbalance() < pinned.imbalance());
        // Total work is conserved: stealing moves runs, never duplicates.
        assert_eq!(stolen.total_load, pinned.total_load);
        // The hot tenant is split across workers; each session has exactly
        // one worker (runs are never subdivided).
        let (_, hot) = &stolen.placements[0];
        match hot {
            Placement::Split { workers } => {
                assert_eq!(workers.len(), 3, "one worker per session-run");
                assert!(
                    workers
                        .iter()
                        .collect::<std::collections::HashSet<_>>()
                        .len()
                        > 1
                );
            }
            Placement::Whole { .. } => panic!("hot tenant must be split"),
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_queue_depths() {
        let loads = [load(0, 37, 2), load(1, 9, 2), load(2, 61, 3), load(3, 9, 1)];
        let a = plan(&loads, &cfg(3, true));
        let b = plan(&loads, &cfg(3, true));
        assert_eq!(a, b);
        // Listing tenants in a different order must not change the plan —
        // only depths matter.
        let shuffled = [loads[2], loads[0], loads[3], loads[1]];
        let c = plan(&shuffled, &cfg(3, true));
        assert_eq!(a, c);
    }

    #[test]
    fn single_worker_behaves_like_pinned_regardless_of_steal() {
        let loads = [load(0, 80, 3), load(1, 10, 3)];
        let stolen = plan(&loads, &cfg(1, true));
        assert_eq!(stolen.workers_used, 1);
        assert_eq!(stolen.stolen_runs, 0);
        for (_, placement) in &stolen.placements {
            assert!(matches!(placement, Placement::Whole { worker: 0 }));
        }
    }

    #[test]
    fn stealing_uses_workers_beyond_the_tenant_count() {
        // One hot tenant, four workers: pinned mode can only use one worker,
        // stealing spreads the three session-runs across three.
        let loads = [load(0, 100, 3)];
        let pinned = plan(&loads, &cfg(4, false));
        assert_eq!(pinned.workers_used, 1);
        let stolen = plan(&loads, &cfg(4, true));
        assert_eq!(stolen.workers_used, 3, "capped by total session-runs");
        assert_eq!(stolen.stolen_runs, 2);
        assert_eq!(stolen.max_load, 100);
    }

    #[test]
    fn sessionless_tenants_get_a_pseudo_run() {
        let plan = plan(&[load(0, 5, 0)], &cfg(2, true));
        assert_eq!(plan.session_runs, 1);
        assert_eq!(plan.placements.len(), 1);
        assert!(matches!(plan.placements[0].1, Placement::Whole { .. }));
    }

    /// Every session-run placed exactly once, contiguously, with each
    /// tenant at most once per segment — the epoch-mode expression of the
    /// "sessions never split / order preserved" invariants.
    fn assert_epoch_invariants(plan: &EpochPlan, loads: &[TenantLoad]) {
        let mut placed: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for segment in &plan.segments {
            let mut seen = std::collections::HashSet::new();
            for chunk in &segment.chunks {
                assert!(chunk.runs >= 1);
                assert!(chunk.worker < plan.workers_used);
                assert!(seen.insert(chunk.tenant), "tenant twice in one segment");
                let next = placed.entry(chunk.tenant).or_insert(0);
                assert_eq!(
                    chunk.first_session, *next,
                    "runs must be consumed contiguously in session order"
                );
                *next += chunk.runs;
            }
        }
        for load in loads.iter().filter(|l| l.depth > 0) {
            assert_eq!(
                placed.get(&load.tenant).copied().unwrap_or(0),
                load.sessions.max(1),
                "tenant {} runs placed exactly once",
                load.tenant
            );
        }
    }

    #[test]
    fn epoch_plan_preserves_run_atomicity_and_is_pure() {
        let loads = [load(0, 40, 3), load(1, 8, 2), load(2, 8, 2), load(3, 0, 5)];
        let a = epoch_plan(&loads, &cfg(3, true), 2);
        assert_epoch_invariants(&a, &loads);
        assert!(a.epochs() > 1, "seven runs at K=2 must cut segments");
        assert_eq!(a.replans(), a.epochs() - 1);
        assert_eq!(a.session_runs, 7);
        assert_eq!(a.total_load, 3 * 40 + 2 * 8 + 2 * 8);
        // Pure function: identical inputs and shuffled tenant listing give
        // the identical plan.
        assert_eq!(a, epoch_plan(&loads, &cfg(3, true), 2));
        let shuffled = [loads[2], loads[3], loads[0], loads[1]];
        assert_eq!(a, epoch_plan(&shuffled, &cfg(3, true), 2));
    }

    #[test]
    fn epoch_replanning_flattens_skew_against_completed_weight() {
        // One heavy tenant (3 sessions × 60) among light ones: a single
        // static segment pins all heavy runs at once, while epoch cuts let
        // later segments route around the bin that absorbed the first
        // heavy chunk.
        let loads = [load(0, 60, 3), load(1, 10, 2), load(2, 10, 2)];
        let one_shot = epoch_plan(&loads, &cfg(4, true), usize::MAX);
        assert_eq!(one_shot.epochs(), 1);
        let epoched = epoch_plan(&loads, &cfg(4, true), 2);
        assert_epoch_invariants(&epoched, &loads);
        assert!(epoched.epochs() > 1);
        assert!(
            epoched.imbalance() <= one_shot.imbalance(),
            "re-planning must not worsen the makespan: {} > {}",
            epoched.imbalance(),
            one_shot.imbalance()
        );
    }

    #[test]
    fn epoch_plan_handles_edge_shapes() {
        // Empty snapshot.
        let empty = epoch_plan(&[load(0, 0, 3)], &cfg(4, true), 2);
        assert_eq!(empty.epochs(), 0);
        assert_eq!(empty.imbalance(), 1.0);
        // Session-less tenant gets one pseudo-run; K=1 cuts per run.
        let single = epoch_plan(&[load(0, 5, 0), load(1, 3, 1)], &cfg(2, false), 1);
        assert_epoch_invariants(&single, &[load(0, 5, 0), load(1, 3, 1)]);
        assert_eq!(single.session_runs, 2);
        // K larger than the round degenerates to one segment, zero replans.
        let big_k = epoch_plan(&[load(0, 5, 2)], &cfg(2, true), 100);
        assert_eq!(big_k.epochs(), 1);
        assert_eq!(big_k.replans(), 0);
    }

    #[test]
    fn epoch_stats_fold_into_sched_stats() {
        let loads = [load(0, 40, 3), load(1, 8, 2)];
        let plan = epoch_plan(&loads, &cfg(2, true), 2);
        let mut stats = SchedStats::default();
        stats.absorb_epoch_round(&plan, 40);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.session_runs, 5);
        assert_eq!(stats.epochs, plan.epochs());
        assert_eq!(stats.replans, plan.replans());
        assert_eq!(stats.max_queue_depth, 40);
    }

    #[test]
    fn sched_stats_accumulate_across_rounds() {
        let loads = [load(0, 80, 3), load(1, 10, 3)];
        let p = plan(&loads, &cfg(4, true));
        let mut stats = SchedStats::default();
        stats.absorb_round(&p, 80);
        stats.absorb_round(&plan(&[load(1, 4, 3)], &cfg(4, true)), 4);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.max_queue_depth, 80);
        assert_eq!(stats.session_runs, p.session_runs + 3);
        assert!(stats.max_imbalance >= p.imbalance());
    }
}
