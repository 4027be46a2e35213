//! Bench entry-point helpers for reproducing the figures of
//! *Semi-Automatic Index Tuning: Keeping DBAs in the Loop*.
//!
//! The actual experiment machinery lives in the [`harness`] crate: every
//! `benches/figNN_*.rs` target is a thin wrapper that builds the matching
//! declarative scenario from [`harness::scenarios`], replays it (advisor
//! cells run in parallel) and prints the "Total Work Ratio (OPT = 1)" series
//! the paper plots.
//!
//! The **only** place the `WFIT_PHASE_LEN` environment variable is read is
//! [`phase_len_from_env`], called once at each bench's `main` — the harness
//! itself takes the phase length as an explicit [`ScenarioSpec`] field, so
//! tests and concurrent scenarios can never race on process-global state.
//! The paper uses 200 statements per phase; the default here is a faster 60
//! so that `cargo bench` completes in minutes.  Set `WFIT_PHASE_LEN=200` to
//! reproduce the paper-scale runs.

pub use harness::{
    run_scenario, run_service_scenario, scenarios, AdvisorSpec, CellReport, CellSpec, FeedbackSpec,
    RunReport, ScenarioContext, ScenarioSpec, ServiceScenarioSpec, ServiceSessionSpec,
    ServiceSummary,
};

/// Statements per phase for a bench run: the `WFIT_PHASE_LEN` override, or
/// 60.  Benches call this once at their entry point and pass the result down
/// explicitly; nothing below the entry points reads the environment.
pub fn phase_len_from_env() -> usize {
    std::env::var("WFIT_PHASE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Print a figure-style table for a scenario report: one row per checkpoint,
/// one column per cell, followed by the OPT total and per-cell summaries.
pub fn print_report(title: &str, report: &RunReport) {
    println!();
    println!("=== {title} ===");
    print!("{:>8}", "query#");
    for cell in &report.cells {
        print!("{:>14}", cell.label);
    }
    println!();
    for (row, &cp) in report.checkpoints.iter().enumerate() {
        print!("{cp:>8}");
        for cell in &report.cells {
            let v = cell
                .ratio_series
                .get(row)
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN);
            print!("{v:>14.3}");
        }
        println!();
    }
    println!();
    println!("OPT          totalWork = {:>14.0}", report.opt_total);
    print_summaries(report);
}

/// Print one summary line per cell of a report.
pub fn print_summaries(report: &RunReport) {
    for cell in &report.cells {
        println!("{}", summary_line(cell));
    }
}

/// The classic one-line cell summary used by every figure bench.
pub fn summary_line(cell: &CellReport) -> String {
    format!(
        "{:<12} totalWork = {:>14.0}   OPT-ratio = {:.3}",
        cell.label, cell.total_work, cell.opt_ratio
    )
}

/// Merge one arm's headline service metrics into
/// `target/bench-reports/BENCH_service.json`, keyed by `arm` (e.g.
/// `static` vs `epoch`).  Each bench invocation replaces its
/// own arm and leaves the others in place, so CI can run the service bench
/// once per configuration and upload a single side-by-side artifact; arms
/// are kept key-sorted so the file is deterministic for a given set of
/// runs.  Returns the path written.
pub fn write_service_bench_report(arm: &str, service: &ServiceSummary) -> std::path::PathBuf {
    use harness::Json;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    std::fs::create_dir_all(&dir).expect("create bench-reports dir");
    let path = dir.join("BENCH_service.json");
    let mut arms: Vec<(String, Json)> = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(fields)) => fields.into_iter().filter(|(k, _)| k != arm).collect(),
        _ => Vec::new(),
    };
    arms.push((
        arm.to_string(),
        Json::obj(vec![
            ("events_per_sec", Json::Num(service.events_per_sec)),
            ("whatif_requests", Json::Num(service.cache_requests as f64)),
            ("latency_p99_us", Json::Num(service.latency_p99_us as f64)),
            ("load_imbalance", Json::Num(service.load_imbalance)),
            ("epochs", Json::Num(service.epochs as f64)),
            ("replans", Json::Num(service.replans as f64)),
        ]),
    ));
    arms.sort_by(|a, b| a.0.cmp(&b.0));
    let rendered = Json::Obj(arms).render().expect("metrics are finite");
    std::fs::write(&path, rendered).expect("write BENCH_service.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_scenario_end_to_end_without_env_vars() {
        // The phase length is an explicit parameter: no env-var writes, so
        // this test cannot race with anything else in the process.
        let report = run_scenario(
            ScenarioSpec::new("bench-smoke", 3)
                .cell(CellSpec::new(
                    "WFIT",
                    AdvisorSpec::WfitFixed { state_cnt: 500 },
                ))
                .cell(CellSpec::new("BC", AdvisorSpec::Bc)),
        );
        assert_eq!(report.statements, 24);
        assert!(report.opt_total > 0.0);
        let wfit = report.cell("WFIT").unwrap();
        assert!(wfit.opt_ratio > 0.0 && wfit.opt_ratio <= 1.05);
        assert_eq!(
            report.checkpoints.len(),
            wfit.ratio_series.len(),
            "one ratio per checkpoint"
        );
        let line = summary_line(wfit);
        assert!(line.contains("WFIT") && line.contains("OPT-ratio"));
        print_report("smoke", &report);
    }

    #[test]
    fn phase_len_default_is_sixty() {
        // The variable is only consulted here, at the bench edge.
        if std::env::var("WFIT_PHASE_LEN").is_err() {
            assert_eq!(phase_len_from_env(), 60);
        }
    }
}
