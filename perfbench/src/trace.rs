//! Timing shims for the traced run.
//!
//! [`TimedEnv`] wraps a session's [`TuningEnv`] and [`TimedAdvisor`] wraps
//! its [`IndexAdvisor`]; both forward every trait method to the wrapped
//! value and record what they see in one [`Probe`] per session.  Spans stay
//! in memory until the run ends.
//!
//! The env shim builds each index benefit graph through its own timed
//! `whatif`, exactly as `TuningEnv::ibg`'s default and a `TenantEnv` without
//! an IBG store do, so what-if time inside a build is attributed to
//! `simdb` and the rest of the build to `ibg`.  The graph is the same pure
//! function of `(statement, relevant set)` either way; the benchmark's
//! correctness gate checks that traced and untraced cost cells agree bit for
//! bit.

use ibg::IndexBenefitGraph;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::query::Statement;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use wfit_core::{IndexAdvisor, SharedIbg, TuningEnv, Wfit};

/// Nanoseconds since the first call in this process: the common time base
/// of every span, across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which advisor call an [`AdvisorSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `IndexAdvisor::analyze_query`.
    Analyze,
    /// `IndexAdvisor::feedback`.
    Feedback,
}

/// One advisor call, on the thread that ran it.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorSpan {
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Time spent in env calls made during the span (its child spans).
    pub env_ns: u64,
    /// The call.
    pub op: Op,
}

impl AdvisorSpan {
    /// Span duration minus its env children.
    pub fn self_ns(&self) -> u64 {
        (self.end - self.start).saturating_sub(self.env_ns)
    }
}

/// What one session's shims recorded: env counters, WFIT counters and the
/// advisor spans.  Env counters are atomics only because the probe is
/// shared (`Arc`) between the two shims; a session runs on one thread at a
/// time, so they are never contended.
#[derive(Debug, Default)]
pub struct Probe {
    /// What-if requests (`whatif` and `cost`).
    pub whatif_calls: AtomicU64,
    /// Time inside what-if requests.
    pub whatif_ns: AtomicU64,
    /// Index benefit graphs built.
    pub ibg_builds: AtomicU64,
    /// Nodes of those graphs.
    pub ibg_nodes: AtomicU64,
    /// Time inside graph builds, what-if requests excluded.
    pub ibg_self_ns: AtomicU64,
    /// `extract_candidates` calls.
    pub extract_calls: AtomicU64,
    /// Time inside `extract_candidates`.
    pub extract_ns: AtomicU64,
    /// Time inside any env call not nested in another (the advisors'
    /// child spans).
    pub env_ns: AtomicU64,
    /// Σ over analyzed statements of Σ over parts of `2^|part|`.
    pub state_updates: AtomicU64,
    /// WFIT repartitions, as of the last analyzed statement.
    pub repartitions: AtomicU64,
    /// Advisor calls, in order.
    pub spans: Mutex<Vec<AdvisorSpan>>,
}

impl Probe {
    /// The recorded advisor spans.
    pub fn spans(&self) -> Vec<AdvisorSpan> {
        self.spans.lock().expect("probe lock poisoned").clone()
    }
}

/// A [`TuningEnv`] that forwards to `inner` and records into a [`Probe`].
pub struct TimedEnv<E> {
    inner: E,
    probe: std::sync::Arc<Probe>,
    /// Set while a graph build runs, so its what-if requests are not
    /// counted twice as top-level env time.
    nested: Cell<bool>,
}

impl<E: Clone> Clone for TimedEnv<E> {
    fn clone(&self) -> Self {
        Self::new(self.inner.clone(), self.probe.clone())
    }
}

impl<E> TimedEnv<E> {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: E, probe: std::sync::Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            nested: Cell::new(false),
        }
    }

    fn top_level(&self, start: u64) {
        if !self.nested.get() {
            self.probe.env_ns.fetch_add(now_ns() - start, Relaxed);
        }
    }

    fn whatif_done(&self, start: u64) {
        let dt = now_ns() - start;
        self.probe.whatif_calls.fetch_add(1, Relaxed);
        self.probe.whatif_ns.fetch_add(dt, Relaxed);
        if !self.nested.get() {
            self.probe.env_ns.fetch_add(dt, Relaxed);
        }
    }
}

impl<E: TuningEnv> TuningEnv for TimedEnv<E> {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        let start = now_ns();
        let cost = self.inner.whatif(stmt, config);
        self.whatif_done(start);
        cost
    }

    fn ibg(&self, stmt: &Statement, relevant: IndexSet) -> SharedIbg {
        let start = now_ns();
        let whatif_before = self.probe.whatif_ns.load(Relaxed);
        let outer = self.nested.replace(true);
        let graph = IndexBenefitGraph::build(relevant, |cfg| self.whatif(stmt, cfg));
        self.nested.set(outer);
        let dt = now_ns() - start;
        let whatif = self.probe.whatif_ns.load(Relaxed) - whatif_before;
        self.probe.ibg_builds.fetch_add(1, Relaxed);
        self.probe
            .ibg_nodes
            .fetch_add(graph.node_count() as u64, Relaxed);
        self.probe
            .ibg_self_ns
            .fetch_add(dt.saturating_sub(whatif), Relaxed);
        if !outer {
            self.probe.env_ns.fetch_add(dt, Relaxed);
        }
        SharedIbg::fresh(graph)
    }

    fn cost(&self, stmt: &Statement, config: &IndexSet) -> f64 {
        let start = now_ns();
        let cost = self.inner.cost(stmt, config);
        self.whatif_done(start);
        cost
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        let start = now_ns();
        let cost = self.inner.create_cost(id);
        self.top_level(start);
        cost
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        let start = now_ns();
        let cost = self.inner.drop_cost(id);
        self.top_level(start);
        cost
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        let start = now_ns();
        let cost = self.inner.transition_cost(from, to);
        self.top_level(start);
        cost
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        let start = now_ns();
        let candidates = self.inner.extract_candidates(stmt);
        self.probe.extract_calls.fetch_add(1, Relaxed);
        self.probe.extract_ns.fetch_add(now_ns() - start, Relaxed);
        self.top_level(start);
        candidates
    }

    fn describe_index(&self, id: IndexId) -> String {
        let start = now_ns();
        let name = self.inner.describe_index(id);
        self.top_level(start);
        name
    }
}

/// Reads `(Σ_parts 2^|part|, repartitions)` from an advisor.
type PartitionProbe<A> = fn(&A) -> (u64, u64);

/// An [`IndexAdvisor`] that forwards to `inner` and records its calls as
/// [`AdvisorSpan`]s, plus WFIT's partition counters when `inner` is WFIT.
pub struct TimedAdvisor<A> {
    inner: A,
    probe: std::sync::Arc<Probe>,
    /// Read after each statement.
    partition: Option<PartitionProbe<A>>,
}

impl<A: IndexAdvisor> TimedAdvisor<A> {
    /// Wrap a non-WFIT advisor.
    pub fn new(inner: A, probe: std::sync::Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            partition: None,
        }
    }

    fn span(&self, op: Op, start: u64, env_before: u64) {
        let span = AdvisorSpan {
            start,
            end: now_ns(),
            env_ns: self.probe.env_ns.load(Relaxed) - env_before,
            op,
        };
        self.probe
            .spans
            .lock()
            .expect("probe lock poisoned")
            .push(span);
    }
}

impl<E: TuningEnv> TimedAdvisor<Wfit<E>> {
    /// Wrap WFIT, also reading its partition after every statement.
    pub fn wfit(inner: Wfit<E>, probe: std::sync::Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            partition: Some(|w: &Wfit<E>| {
                let states = w.partition().iter().map(|part| 1u64 << part.len()).sum();
                (states, w.repartition_count())
            }),
        }
    }
}

impl<A: IndexAdvisor> IndexAdvisor for TimedAdvisor<A> {
    fn analyze_query(&mut self, stmt: &Statement) {
        let env_before = self.probe.env_ns.load(Relaxed);
        let start = now_ns();
        self.inner.analyze_query(stmt);
        self.span(Op::Analyze, start, env_before);
        if let Some(read) = self.partition {
            let (states, repartitions) = read(&self.inner);
            self.probe.state_updates.fetch_add(states, Relaxed);
            self.probe.repartitions.store(repartitions, Relaxed);
        }
    }

    fn recommend(&self) -> IndexSet {
        self.inner.recommend()
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        let env_before = self.probe.env_ns.load(Relaxed);
        let start = now_ns();
        self.inner.feedback(positive, negative);
        self.span(Op::Feedback, start, env_before);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn safety_fallbacks(&self) -> u64 {
        self.inner.safety_fallbacks()
    }
}
