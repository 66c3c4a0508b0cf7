//! `rpr-report` — run, render, and gate [`BenchRecord`]s.
//!
//! ```text
//! rpr-report run --task slam [--baseline rp10] [--out record.json]
//!                [--trace trace.json] [--json]
//! rpr-report render record.json
//! rpr-report gate BASE NEW
//! ```
//!
//! `run` executes one workload (at `RPR_SCALE`) with tracing enabled
//! and emits a `BenchRecord` of the report's gated metrics with the
//! full `RunReport` embedded; `--trace` additionally writes a Chrome
//! trace-event file loadable in Perfetto. `render` prints any record
//! (and its embedded report). `gate` is the CI regression gate: it
//! judges NEW against every metric of the committed baseline BASE at
//! the baseline's own bounds, then checks in process that each gated
//! metric, moved just past its bound, trips the gate. Exit status: 0
//! pass, 1 regression, 2 unreadable input, 3 the self-check failed.

use rpr_bench::record::{gate, self_check, BenchRecord};
use rpr_bench::report::{parse_baseline, run_workload_report, ReportTask};
use rpr_bench::Scale;
use rpr_trace::chrome_trace_json;
use rpr_workloads::Baseline;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage:\n  rpr-report run --task face|pose|slam [--baseline SPEC] \
         [--out FILE] [--trace FILE] [--json]\n  rpr-report render FILE\n  \
         rpr-report gate BASE NEW"
    );
    ExitCode::from(2)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut task: Option<ReportTask> = None;
    let mut baseline: Baseline = Baseline::Rp { cycle_length: 10 };
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--task" => match it.next().map(|s| ReportTask::parse(s)) {
                Some(Some(t)) => task = Some(t),
                _ => return usage("--task needs face|pose|slam"),
            },
            "--baseline" => match it.next().map(|s| parse_baseline(s)) {
                Some(Some(b)) => baseline = b,
                _ => return usage("--baseline needs fch|fcl<k>|rp<n>|multiroi<k>"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--trace" => match it.next() {
                Some(p) => trace = Some(p.clone()),
                None => return usage("--trace needs a path"),
            },
            "--json" => json = true,
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(task) = task else { return usage("run requires --task") };

    let scale = Scale::from_env();
    let run = run_workload_report(task, baseline, &scale);
    if let Some(path) = &trace {
        if let Err(e) = std::fs::write(path, chrome_trace_json(&run.events)) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote Chrome trace ({} events) to {path}", run.events.len());
    }
    let record = BenchRecord::from_report(run.report);
    if out.is_some() {
        record.emit(out.as_deref());
    }
    if json {
        record.emit(None);
    } else {
        print!("{}", render(&record));
    }
    ExitCode::SUCCESS
}

/// The embedded report (when present) followed by the metric table.
fn render(record: &BenchRecord) -> String {
    let report = record.report.as_ref().map(|r| r.render_text()).unwrap_or_default();
    report + &record.render_text()
}

fn cmd_render(args: &[String]) -> ExitCode {
    let [path] = args else { return usage("render takes exactly one file") };
    match BenchRecord::read(path) {
        Ok(record) => {
            print!("{}", render(&record));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_gate(args: &[String]) -> ExitCode {
    let [base_path, new_path] = args else {
        return usage("gate takes exactly two record files and no flags");
    };
    if args.iter().any(|a| a.starts_with('-')) {
        return usage("gate takes no flags: bounds come from the baseline");
    }
    let (base, new) = match (BenchRecord::read(base_path), BenchRecord::read(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = base.validate_baseline() {
        eprintln!("error: {base_path}: {e}");
        return ExitCode::from(2);
    }
    let checks = gate(&base, &new);
    for c in &checks {
        let new = c.new.map_or_else(|| "missing".to_string(), |v| format!("{v:.4}"));
        println!(
            "{:<40} {:>16.4} -> {:>16} (limit {:.4}, {} is better, bound {}%)  {}",
            c.base.name,
            c.base.value,
            new,
            c.base.limit(),
            c.base.better.label(),
            c.base.bound * 100.0,
            if c.failed { "FAIL" } else { "ok" }
        );
    }
    let failed = checks.iter().filter(|c| c.failed).count();
    println!("gate: {failed} of {} baseline metrics failed", checks.len());
    match self_check(&base, &new) {
        Ok(n) => println!("self-check: {n} of {n} metrics trip the gate just past their bound"),
        Err(e) => {
            eprintln!("self-check FAILED: {e}");
            return ExitCode::from(3);
        }
    }
    if failed > 0 {
        eprintln!("regression detected ({base_path} -> {new_path})");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "render" => cmd_render(rest),
            "gate" => cmd_gate(rest),
            other => usage(&format!("unknown command {other}")),
        },
        None => usage("missing command"),
    }
}
