//! Per-layer metrics of a traced pass.

use crate::bench::{Pass, Traced};
use crate::stats;
use crate::trace::{AdvisorSpan, Op};
use crate::Metric;
use service::TuningService;
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;

/// Everything the per-layer metrics are computed from.
pub struct Traces<'a> {
    /// The traced pass.
    pub pass: &'a Pass,
    /// The service after it.
    pub svc: &'a TuningService,
    /// Its sessions' probes.
    pub probes: &'a [Traced],
    /// Untraced over traced `events_per_s` of the saturated pass.
    pub overhead: f64,
}

/// Σ over `rounds` of the part of each round not covered by any span in
/// `spans`, in ns.  Spans may overlap (sessions run on several workers).
fn uncovered_ns(rounds: &[(u64, u64)], spans: &[AdvisorSpan]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut first = 0;
    let mut total = 0;
    for &(rs, re) in rounds {
        while first < merged.len() && merged[first].1 <= rs {
            first += 1;
        }
        let covered: u64 = merged[first..]
            .iter()
            .take_while(|(s, _)| *s < re)
            .map(|&(s, e)| e.min(re).saturating_sub(s.max(rs)))
            .sum();
        total += (re - rs).saturating_sub(covered);
    }
    total
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// The per-layer metrics, in report order.  A layer the workload does not
/// run reads 0.
pub fn metrics(t: &Traces) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Traced) -> u64| t.probes.iter().map(f).sum::<u64>() as f64;
    let spans: Vec<(&str, AdvisorSpan)> = t
        .probes
        .iter()
        .flat_map(|p| p.probe.spans().into_iter().map(move |s| (p.kind, s)))
        .collect();
    let select = |wfit: bool, op: Op| -> Vec<AdvisorSpan> {
        spans
            .iter()
            .filter(|(kind, s)| kind.starts_with("WFIT") == wfit && s.op == op)
            .map(|(_, s)| *s)
            .collect()
    };
    let analyze = select(true, Op::Analyze);
    let feedback = select(true, Op::Feedback);
    let bc = select(false, Op::Analyze);
    let dur = |s: &AdvisorSpan| (s.end - s.start) as f64;
    let wfit_self: f64 = analyze.iter().map(|s| s.self_ns() as f64).sum();
    let advisor_total: f64 = spans.iter().map(|(_, s)| dur(s)).sum();
    let wfit = |f: &dyn Fn(&Traced) -> u64| {
        t.probes
            .iter()
            .filter(|p| p.kind.starts_with("WFIT"))
            .map(f)
            .sum::<u64>() as f64
    };
    let state_updates = wfit(&|p| p.probe.state_updates.load(Relaxed));
    let whatif_calls = sum(&|p| p.probe.whatif_calls.load(Relaxed));
    let builds = sum(&|p| p.probe.ibg_builds.load(Relaxed));
    let extracts = sum(&|p| p.probe.extract_calls.load(Relaxed));
    let cache = t.svc.aggregate_cache_stats();
    let events = t.pass.latency_ms.len() as f64;
    let rounds: Vec<(u64, u64)> = t.pass.rounds.iter().map(|r| (r.start, r.end)).collect();
    let all_spans: Vec<AdvisorSpan> = spans.iter().map(|(_, s)| *s).collect();
    let p99 = |v: &[f64]| stats::percentile(v, 99.0).unwrap_or(0.0);
    let mean_ns_us = |v: &[u64]| per(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e3;
    let whatif_requests: u64 = t
        .svc
        .session_ids()
        .into_iter()
        .map(|id| t.svc.session_whatif_requests(id))
        .sum();
    vec![
        Metric::new(
            "simdb.parse_us",
            mean_ns_us(&t.pass.parse_ns),
            "us",
            t.pass.parse_ns.len(),
        ),
        Metric::new(
            "simdb.whatif_us",
            per(sum(&|p| p.probe.whatif_ns.load(Relaxed)), whatif_calls) / 1e3,
            "us",
            whatif_calls as usize,
        ),
        Metric::new("simdb.whatif_calls", whatif_requests as f64, "count", 1),
        Metric::new(
            "simdb.cache_hit_rate",
            cache.hit_rate(),
            "ratio",
            cache.requests as usize,
        ),
        Metric::new("simdb.cache_entries", cache.entries as f64, "count", 1),
        Metric::new(
            "ibg.build_us",
            per(sum(&|p| p.probe.ibg_self_ns.load(Relaxed)), builds) / 1e3,
            "us",
            builds as usize,
        ),
        Metric::new("ibg.builds", builds, "count", 1),
        Metric::new(
            "ibg.nodes_per_build",
            per(sum(&|p| p.probe.ibg_nodes.load(Relaxed)), builds),
            "count",
            builds as usize,
        ),
        Metric::new(
            "candidates.extract_us",
            per(sum(&|p| p.probe.extract_ns.load(Relaxed)), extracts) / 1e3,
            "us",
            extracts as usize,
        ),
        Metric::new(
            "wfit.analyze_us",
            per(analyze.iter().map(dur).sum(), analyze.len() as f64) / 1e3,
            "us",
            analyze.len(),
        ),
        Metric::new(
            "wfit.self_us",
            per(wfit_self, analyze.len() as f64) / 1e3,
            "us",
            analyze.len(),
        ),
        Metric::new(
            "wfit.self_share",
            per(wfit_self, advisor_total),
            "ratio",
            spans.len(),
        ),
        Metric::new("wfa.state_updates", state_updates, "count", 1),
        Metric::new(
            "wfa.ns_per_state",
            per(wfit_self, state_updates),
            "ns",
            analyze.len(),
        ),
        Metric::new(
            "wfit.repartitions",
            wfit(&|p| p.probe.repartitions.load(Relaxed)),
            "count",
            1,
        ),
        Metric::new(
            "wfit.feedback_us",
            per(feedback.iter().map(dur).sum(), feedback.len() as f64) / 1e3,
            "us",
            feedback.len(),
        ),
        Metric::new(
            "bc.analyze_us",
            per(bc.iter().map(dur).sum(), bc.len() as f64) / 1e3,
            "us",
            bc.len(),
        ),
        Metric::new(
            "ingress.submit_us",
            mean_ns_us(&t.pass.submit_ns),
            "us",
            t.pass.submit_ns.len(),
        ),
        Metric::new(
            "ingress.wait_p99_ms",
            p99(&t.pass.wait_ms),
            "ms",
            t.pass.wait_ms.len(),
        ),
        Metric::new(
            "scheduler.load_imbalance",
            t.svc.sched_stats().max_imbalance,
            "ratio",
            rounds.len(),
        ),
        Metric::new("daemon.rounds", rounds.len() as f64, "count", 1),
        Metric::new(
            "daemon.events_per_round",
            per(events, rounds.len() as f64),
            "count",
            rounds.len(),
        ),
        Metric::new(
            "daemon.round_self_us",
            per(
                uncovered_ns(&rounds, &all_spans) as f64,
                rounds.len() as f64,
            ) / 1e3,
            "us",
            rounds.len(),
        ),
        Metric::new(
            "persist.wal_bytes_per_event",
            per(t.pass.wal_bytes as f64, events),
            "B",
            events as usize,
        ),
        Metric::new(
            "persist.snapshot_ms",
            stats::median(&t.pass.snapshot_ms).unwrap_or(0.0),
            "ms",
            t.pass.snapshot_ms.len(),
        ),
        Metric::new(
            "persist.snapshot_bytes",
            t.pass.snapshot_bytes as f64,
            "B",
            1,
        ),
        Metric::new(
            "persist.snapshot_share",
            t.pass.snapshot_ms.iter().sum::<f64>() / (t.pass.wall_s * 1e3),
            "ratio",
            t.pass.snapshot_ms.len(),
        ),
        Metric::new("persist.restore_ms", 0.0, "ms", 0),
        Metric::new("persist.snapshot_load_ms", 0.0, "ms", 0),
        Metric::new(
            "loadgen.lag_p99_ms",
            p99(&t.pass.lag_ms),
            "ms",
            t.pass.lag_ms.len(),
        ),
        Metric::new("trace.overhead", t.overhead, "ratio", 2),
    ]
}

/// The traced pass's spans as JSON: poll rounds `[start, end, events]` and
/// each session's advisor calls `[start, end, env_ns, op]`, times in ns.
pub fn spans_json(t: &Traces) -> String {
    let mut out = String::from("{\"rounds\": [");
    for (i, r) in t.pass.rounds.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}[{}, {}, {}]", r.start, r.end, r.events);
    }
    out.push_str("], \"sessions\": [");
    for (i, p) in t.probes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"tenant\": {}, \"session\": {}, \"advisor\": \"{}\", \"calls\": [",
            p.id.tenant.0, p.id.index, p.kind
        );
        for (j, s) in p.probe.spans().iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let op = match s.op {
                Op::Analyze => "analyze",
                Op::Feedback => "feedback",
            };
            let _ = write!(out, "{sep}[{}, {}, {}, \"{op}\"]", s.start, s.end, s.env_ns);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> AdvisorSpan {
        AdvisorSpan {
            start,
            end,
            env_ns: 0,
            op: Op::Analyze,
        }
    }

    #[test]
    fn uncovered_time_counts_overlapping_spans_once() {
        // Round [0, 100): spans [10, 40) and [30, 50) overlap, [90, 120)
        // sticks out; covered = 40 + 10.  Round [200, 300) is bare.
        let spans = [span(10, 40), span(30, 50), span(90, 120)];
        assert_eq!(uncovered_ns(&[(0, 100)], &spans), 50);
        assert_eq!(uncovered_ns(&[(0, 100), (200, 300)], &spans), 150);
        assert_eq!(uncovered_ns(&[(0, 100)], &[]), 100);
    }
}
