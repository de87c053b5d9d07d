//! `repro` — regenerate every table and figure of the CIAO paper.
//!
//! ```text
//! cargo run --release -p ciao_bench --bin repro -- all
//! cargo run --release -p ciao_bench --bin repro -- fig3 fig6 table4
//! CIAO_SCALE_RECORDS=100000 cargo run --release -p ciao_bench --bin repro -- fig5
//! cargo run --release -p ciao_bench --bin repro -- micro
//! cargo run --release -p ciao_bench --bin repro -- check-perf \
//!     --baseline BENCH_hotpath.json --tolerance-pct 25
//! ```
//!
//! Absolute times will not match the paper (our substrate is a
//! simulator at laptop scale, not the authors' testbed); the printed
//! shapes — who wins, where partial loading kicks in, which workloads
//! benefit — are the reproduction targets. See "Reproducing the paper"
//! in the README. An unknown target lists the valid ones and exits 2
//! before anything runs.

use ciao_bench::experiments::{
    ablation, durability, end_to_end, fanout, fig6, hotpath, micro, profile, service, sql, table4,
    tables,
};
use ciao_bench::table::{f3, pct, TextTable};
use ciao_bench::{perf_gate, trajectory, ExperimentScale};
use ciao_datagen::Dataset;

/// Every experiment, in the order `all` (or no argument) runs them.
const EXPERIMENTS: [&str; 22] = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table4",
    "headline",
    "ablation",
    "service",
    "sql",
    "profile",
    "durability",
    "fanout",
    "micro",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-perf") {
        check_perf(&args[1..]);
        return;
    }
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "all" && *a != "validate-bench" && !EXPERIMENTS.contains(a))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {}\nvalid targets: all, {}, validate-bench, check-perf",
            unknown.join(", "),
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let scale = ExperimentScale::default();
    println!(
        "# CIAO reproduction — {} records/dataset, {} queries/workload\n",
        scale.records, scale.queries
    );

    // Cached cross-experiment state.
    let mut e2e_cache: std::collections::HashMap<&str, Vec<end_to_end::EndToEndRow>> =
        std::collections::HashMap::new();
    let mut micro_env: Option<micro::MicroEnv> = None;

    for target in targets {
        match target {
            "table1" => print_table1(),
            "table2" => print_table2(),
            "table3" => print_table3(),
            "fig3" => print_end_to_end("fig3", Dataset::WinLog, scale, &mut e2e_cache),
            "fig4" => print_end_to_end("fig4", Dataset::Yelp, scale, &mut e2e_cache),
            "fig5" => print_end_to_end("fig5", Dataset::Ycsb, scale, &mut e2e_cache),
            "fig6" => print_fig6(scale),
            "fig7" | "fig8" => print_selectivity(target, scale, &mut micro_env),
            "fig9" | "fig10" => print_overlap(target, scale, &mut micro_env),
            "fig11" | "fig12" => print_skewness(target, scale, &mut micro_env),
            "table4" => print_table4(),
            "headline" => print_headline(scale, &mut e2e_cache),
            "ablation" => print_ablation(),
            "service" => print_service(scale),
            "sql" => print_sql(scale),
            "profile" => print_profile(scale),
            "durability" => print_durability(scale),
            "fanout" => print_fanout(),
            "micro" => print_hotpath(scale),
            "validate-bench" => validate_bench(),
            other => unreachable!("`{other}` was checked against the targets"),
        }
    }
}

fn print_table1() {
    println!("## Table I — supported predicates and pattern strings\n");
    let mut t = TextTable::new(&["Supported Predicate", "Example", "Pattern String"]);
    for row in tables::table1() {
        t.row(&[row.kind.to_string(), row.example, row.pattern]);
    }
    println!("{t}");
}

fn print_table2() {
    println!("## Table II — predicate templates and candidate counts\n");
    let mut t = TextTable::new(&["Dataset", "Predicate Template", "#Candidates"]);
    for row in tables::table2() {
        t.row(&[
            row.dataset.to_string(),
            row.template.to_string(),
            row.candidates.to_string(),
        ]);
    }
    println!("{t}");
}

fn print_table3() {
    println!("## Table III — end-to-end workloads (measured from generated presets)\n");
    let mut t = TextTable::new(&[
        "Workload",
        "#Predicates",
        "Min/Max #Predicates",
        "Distribution",
        "Skewness factor",
    ]);
    for row in tables::table3(5) {
        t.row(&[
            row.workload.to_string(),
            row.total_predicates.to_string(),
            format!("{}/{}", row.min_predicates, row.max_predicates),
            row.distribution,
            f3(row.skewness),
        ]);
    }
    println!("{t}");
    println!("(paper: A 732 preds Zipfian(1.5); B 617 Zipfian(2); C 607 Uniform — our Zipf\n parameterization differs, see ciao-workload docs; A is most skewed in both.)\n");
}

fn print_end_to_end(
    fig: &str,
    dataset: Dataset,
    scale: ExperimentScale,
    cache: &mut std::collections::HashMap<&str, Vec<end_to_end::EndToEndRow>>,
) {
    let key: &'static str = match dataset {
        Dataset::WinLog => "winlog",
        Dataset::Yelp => "yelp",
        Dataset::Ycsb => "ycsb",
    };
    let rows = cache
        .entry(key)
        .or_insert_with(|| end_to_end::run(dataset, scale));
    println!(
        "## {} — end-to-end vs budget, {} ({} records)\n",
        fig.to_uppercase(),
        dataset,
        scale.records
    );
    let mut t = TextTable::new(&[
        "Workload",
        "Budget(µs)",
        "#Pushed",
        "Prefilter(s)",
        "Loading(s)",
        "Query(s)",
        "Total(s)",
        "LoadRatio",
        "Skipping queries",
    ]);
    for r in rows.iter() {
        t.row(&[
            r.workload.to_string(),
            format!("{:.0}", r.budget),
            r.pushed.to_string(),
            f3(r.prefilter_s),
            f3(r.load_s),
            f3(r.query_s),
            f3(r.total_s()),
            pct(r.loading_ratio),
            r.queries_with_skipping.to_string(),
        ]);
    }
    println!("{t}");
}

fn print_fig6(scale: ExperimentScale) {
    println!("## Fig 6 — % of queries benefiting from data skipping (YCSB, workload C)\n");
    let rows = fig6::run(scale, &[25.0, 50.0, 75.0, 100.0, 125.0]);
    let mut t = TextTable::new(&["Budget(µs)", "Benefiting", "Total", "Fraction"]);
    for r in rows {
        t.row(&[
            format!("{:.0}", r.budget),
            r.benefiting.to_string(),
            r.total.to_string(),
            pct(r.fraction()),
        ]);
    }
    println!("{t}");
    println!("(paper: 37%–68% of queries benefit despite the flat aggregate plot.)\n");
}

fn micro_env(scale: ExperimentScale, slot: &mut Option<micro::MicroEnv>) -> &micro::MicroEnv {
    slot.get_or_insert_with(|| micro::MicroEnv::new(scale))
}

fn print_micro_loading(title: &str, note: &str, rows: &[micro::MicroOutcome]) {
    println!("## {title}\n");
    let mut t = TextTable::new(&[
        "Config",
        "Loading(s)",
        "LoadRatio",
        "Covered queries",
        "Skew factor",
    ]);
    for r in rows {
        t.row(&[
            r.label.clone(),
            f3(r.loading_s),
            pct(r.loading_ratio),
            format!("{}/5", r.covered_queries),
            f3(r.skew_factor),
        ]);
    }
    println!("{t}");
    println!("{note}\n");
}

fn print_micro_queries(title: &str, rows: &[micro::MicroOutcome]) {
    println!("## {title}\n");
    let mut t = TextTable::new(&["Config", "q0(ms)", "q1(ms)", "q2(ms)", "q3(ms)", "q4(ms)"]);
    for r in rows {
        let mut cells = vec![r.label.clone()];
        cells.extend(r.per_query_s.iter().map(|s| format!("{:.3}", s * 1e3)));
        t.row(&cells);
    }
    println!("{t}");
}

fn print_selectivity(fig: &str, scale: ExperimentScale, slot: &mut Option<micro::MicroEnv>) {
    let rows = micro::selectivity_sweep(micro_env(scale, slot));
    if fig == "fig7" {
        print_micro_loading(
            "Fig 7 — loading time & ratio vs predicate selectivity (WinLog)",
            "(paper: lower selectivity → fewer objects loaded → lower loading time.)",
            &rows,
        );
    } else {
        print_micro_queries(
            "Fig 8 — per-query time vs predicate selectivity (WinLog)",
            &rows,
        );
    }
}

fn print_overlap(fig: &str, scale: ExperimentScale, slot: &mut Option<micro::MicroEnv>) {
    let rows = micro::overlap_sweep(micro_env(scale, slot));
    if fig == "fig9" {
        print_micro_loading(
            "Fig 9 — loading time & ratio vs predicate overlap (WinLog)",
            "(paper: Lol/Mol cannot partially load; Hol's covered queries cause a drastic drop.)",
            &rows,
        );
    } else {
        print_micro_queries(
            "Fig 10 — per-query time vs predicate overlap (WinLog)",
            &rows,
        );
    }
}

fn print_skewness(fig: &str, scale: ExperimentScale, slot: &mut Option<micro::MicroEnv>) {
    let rows = micro::skewness_sweep(micro_env(scale, slot));
    if fig == "fig11" {
        print_micro_loading(
            "Fig 11 — loading time & ratio vs predicate skewness (WinLog)",
            "(paper: only the fully-covering Hsk workload enables partial loading.)",
            &rows,
        );
    } else {
        print_micro_queries(
            "Fig 12 — per-query time vs predicate skewness (WinLog)",
            &rows,
        );
    }
}

fn print_table4() {
    println!("## Table IV — cost-model calibration R² across platforms\n");
    let mut t = TextTable::new(&["Platform", "Simulated hardware", "R² (ours)", "R² (paper)"]);
    for row in table4::run(7) {
        t.row(&[
            row.platform,
            row.hardware,
            f3(row.r_squared),
            f3(row.paper_r_squared),
        ]);
    }
    println!("{t}");
}

fn print_ablation() {
    println!("## Ablation — selection-algorithm quality on a real WinLog workload\n");
    let mut t = TextTable::new(&[
        "Budget(µs)",
        "#Cands",
        "Alg1 f(S)",
        "Alg2 f(S)",
        "max(1,2)",
        "PartialEnum",
        "Optimal",
    ]);
    for r in ablation::run(8, &[0.25, 0.5, 1.0, 2.0, 4.0], 3) {
        t.row(&[
            format!("{:.2}", r.budget),
            r.candidates.to_string(),
            f3(r.alg1),
            f3(r.alg2),
            f3(r.max_of_both),
            f3(r.partial_enum),
            r.optimal.map_or("-".into(), f3),
        ]);
    }
    println!("{t}");
    println!("(paper uses max(Alg1, Alg2) with a ½(1−1/e) guarantee; partial enumeration\n lifts that to (1−1/e) at O(n³) planning cost.)\n");
}

fn print_service(scale: ExperimentScale) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("## Service — sharded ingest/query vs the single-threaded server (YCSB, {cores} core(s) available)\n");
    let rows = service::run(scale, &[1, 2, 4, 8]);
    let mut t = TextTable::new(&[
        "Config",
        "Shards",
        "Ingest(s)",
        "Records/s",
        "Speedup",
        "Query(ms)",
        "Ack p50/p99(µs)",
        "Query p50/p99(µs)",
        "Blocked(ms)",
        "Counts==baseline",
    ]);
    for r in &rows {
        t.row(&[
            r.label.clone(),
            r.shards.to_string(),
            f3(r.ingest_s),
            format!("{:.0}", r.records_per_s),
            format!("{:.2}x", r.speedup),
            format!("{:.3}", r.query_ms),
            format!("{:.0}/{:.0}", r.ingest_ack_p50_us, r.ingest_ack_p99_us),
            format!("{:.0}/{:.0}", r.query_p50_us, r.query_p99_us),
            format!("{:.1}", r.blocked_ms),
            if r.counts_ok {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{t}");
    println!("(beyond the paper: client prefiltering is pre-paid on both sides; the table\n isolates what sharding the server loop buys. The ×1 gap vs the baseline is\n the queue+lock tax; speedup beyond it requires the cores to exist — on a\n single-core host every row shows only that coordination overhead. The ack\n and query quantiles come from the service's own telemetry histograms.)\n");

    let path = trajectory::output_path();
    let run = trajectory::run_from_rows("repro", scale.records, None, &rows);
    match trajectory::append_run(&path, run) {
        Ok(doc) => println!(
            "(trajectory: appended run #{} to {})\n",
            doc.runs.len(),
            path.display()
        ),
        Err(e) => eprintln!("(trajectory: could not write {}: {e})\n", path.display()),
    }
}

fn print_sql(scale: ExperimentScale) {
    println!("## SQL — frontend battery vs the full-scan oracle (YCSB, 2 shards)\n");
    let report = sql::run(scale, 2);
    let mut t = TextTable::new(&[
        "Statement",
        "Rows",
        "Covered",
        "Pruned blocks",
        "Skipped rows",
        "Exec(ms)",
        "==Oracle",
    ]);
    for r in &report.rows {
        t.row(&[
            r.statement.clone(),
            r.rows.to_string(),
            if r.covered { "yes".into() } else { "no".into() },
            r.blocks_pruned.to_string(),
            r.rows_skipped.to_string(),
            format!("{:.3}", r.exec_ms),
            if r.matches_oracle {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{t}");
    println!(
        "(stage medians on the pushdown service: parse {:.1} µs, plan {:.1} µs, exec {:.1} µs.\n Covered WHERE clauses ride the same pushed bitvectors and zone maps as the\n COUNT(*) path, so aggregates skip blocks too; every answer is bit-identical\n to the zero-budget single-shard service that scanned everything.)\n",
        report.parse_p50_us, report.plan_p50_us, report.exec_p50_us
    );
}

fn print_profile(scale: ExperimentScale) {
    println!("## Profile — EXPLAIN ANALYZE battery through the query profiler (YCSB, 2 shards)\n");
    let report = profile::run(scale, 2);
    let mut t = TextTable::new(&[
        "Statement",
        "Matched",
        "Blocks",
        "Pruned",
        "Skipped rows",
        "Parked parsed",
        "Clauses",
        "Exec(ms)",
    ]);
    for r in &report.rows {
        t.row(&[
            r.statement.clone(),
            r.rows_matched.to_string(),
            r.blocks_total.to_string(),
            r.blocks_pruned.to_string(),
            r.rows_skipped.to_string(),
            r.parked_parsed.to_string(),
            r.clauses.to_string(),
            format!("{:.3}", r.exec_ms),
        ]);
    }
    println!("{t}");

    println!("### Workload statistics after the battery (EWMA α = 0.2)\n");
    let mut w = TextTable::new(&["Clause", "Pushed", "Seen", "Frequency", "Selectivity"]);
    for c in &report.clauses {
        w.row(&[
            c.text.clone(),
            if c.pushed { "yes".into() } else { "no".into() },
            c.queries_seen.to_string(),
            f3(c.frequency),
            c.selectivity.map_or("-".into(), f3),
        ]);
    }
    println!("{w}");
    println!(
        "(slow-query log captured {} statements at threshold 0; the last statement's\n span tree — {} spans — exported {} Chrome trace events to {}. Open it in\n chrome://tracing or Perfetto to see parse/plan/execute and per-shard rows.)\n",
        report.slow_queries,
        report.trace_spans,
        report.trace_events,
        report.trace_path.display()
    );
}

fn print_durability(scale: ExperimentScale) {
    println!(
        "## Durability — ack overhead of the write-ahead log by sync policy (YCSB, 2 shards)\n"
    );
    let rows = durability::run(scale, 2);
    let mut t = TextTable::new(&[
        "Config",
        "Ingest(s)",
        "Records/s",
        "vs memory",
        "Ack p50/p99(µs)",
        "WAL appends",
        "fsyncs",
        "Checkpoint(ms)",
        "Counts==memory",
    ]);
    for r in &rows {
        t.row(&[
            r.service.label.clone(),
            f3(r.service.ingest_s),
            format!("{:.0}", r.service.records_per_s),
            format!("{:.2}x", r.service.speedup),
            format!(
                "{:.0}/{:.0}",
                r.service.ingest_ack_p50_us, r.service.ingest_ack_p99_us
            ),
            r.wal_appends.to_string(),
            r.wal_syncs.to_string(),
            format!("{:.1}", r.checkpoint_ms),
            if r.service.counts_ok {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{t}");
    println!("(beyond the paper: the ack a producer observes is only as strong as the fsync\n cadence behind it. `always` buys crash-durable acks at one fsync per chunk;\n `every-8` amortizes the cost into a bounded loss window; `never` leaves\n writeback to the OS. Identical counts across rows — durability may cost\n time, never answers.)\n");

    let path = trajectory::output_path();
    let service_rows: Vec<_> = rows.iter().map(|r| r.service.clone()).collect();
    let run = trajectory::run_from_rows("repro-durability", scale.records, None, &service_rows);
    match trajectory::append_run(&path, run) {
        Ok(doc) => println!(
            "(trajectory: appended run #{} to {})\n",
            doc.runs.len(),
            path.display()
        ),
        Err(e) => eprintln!("(trajectory: could not write {}: {e})\n", path.display()),
    }
}

fn print_fanout() {
    println!(
        "## Fan-out — where a statement's shard scans should run (2 shards, {} core(s))\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let rows = fanout::run();
    let mut t = TextTable::new(&[
        "Scans",
        "Surviving rows",
        "Inline(µs)",
        "Hand-off(µs)",
        "Spawn(µs)",
        "Statements/arm",
    ]);
    for r in &rows {
        t.row(&[
            match r.side {
                fanout::Side::Blocks => "block rows".into(),
                fanout::Side::Parked => "parked rows".into(),
            },
            r.surviving_rows.to_string(),
            format!("{:.1}", r.inline_us),
            format!("{:.1}", r.handoff_us),
            format!("{:.1}", r.spawn_us),
            r.samples.to_string(),
        ]);
    }
    println!("{t}");
    let at = |side| {
        fanout::crossover(&rows, side)
            .map_or_else(|| "beyond the sweep".to_owned(), |n| format!("{n} rows"))
    };
    println!(
        "crossover (hand-off at least as fast as inline from here up): block rows {}, parked rows {}",
        at(fanout::Side::Blocks),
        at(fanout::Side::Parked)
    );
    println!("(beyond the paper: medians of `SELECT COUNT(*) … WHERE …` executions, statement\n compiled once, arms interleaved. Inline scans every shard on the caller; hand-off\n keeps one and posts the other to a worker blocked on the ingest queue; spawn is the\n per-statement `thread::scope` the service used before. `ciao_service` scans inline\n up to its `INLINE_MAX_SURVIVING_ROWS`, which is set from the block-row crossover.)\n");
}

fn print_hotpath(scale: ExperimentScale) {
    println!(
        "## Micro — hot-path kernels vs their scalar references ({} records)\n",
        scale.records
    );
    let rows = hotpath::run(scale);
    let mut t = TextTable::new(&[
        "Kernel",
        "Group",
        "Median(ns)",
        "Scalar(ns)",
        "Speedup",
        "MB/s",
        "Gated",
    ]);
    for r in &rows {
        t.row(&[
            r.name.clone(),
            r.group.clone(),
            format!("{:.0}", r.median_ns),
            format!("{:.0}", r.baseline_ns),
            format!("{:.2}x", r.speedup),
            format!("{:.0}", r.throughput_mb_s),
            if r.gated { "yes".into() } else { "no".into() },
        ]);
    }
    println!("{t}");
    println!("(speedups are in-run ratios vs the scalar reference, so they transfer across\n machines; `repro -- check-perf` gates on them. Ungated rows depend on core\n count or time a reference target, and are recorded for the trajectory only.)\n");

    let path = trajectory::hotpath_output_path();
    let run = trajectory::hotpath_run_from_rows("repro", scale.records, rows);
    match trajectory::append_hotpath_run(&path, run) {
        Ok(doc) => println!(
            "(trajectory: appended run #{} to {})\n",
            doc.runs.len(),
            path.display()
        ),
        Err(e) => eprintln!("(trajectory: could not write {}: {e})\n", path.display()),
    }
}

/// `repro -- check-perf --baseline <file> [--current <file>]
/// [--tolerance-pct <pct>]` — compare the latest hot-path run against
/// the committed baseline and exit non-zero on regression. `--current`
/// defaults to the hot-path output path (env-overridable), so CI runs
/// `repro -- micro` into a scratch file and gates it here.
fn check_perf(args: &[String]) {
    let mut baseline_path = None;
    let mut current_path = trajectory::hotpath_output_path();
    let mut tolerance_pct = 25.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = Some(std::path::PathBuf::from(value("--baseline"))),
            "--current" => current_path = std::path::PathBuf::from(value("--current")),
            "--tolerance-pct" => {
                tolerance_pct = value("--tolerance-pct")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--tolerance-pct: {e}")))
            }
            other => die(&format!("unknown check-perf argument `{other}`")),
        }
    }
    let Some(baseline_path) = baseline_path else {
        die("check-perf requires --baseline <file>")
    };
    let baseline = trajectory::read_hotpath(&baseline_path).unwrap_or_else(|e| die(&e));
    let current = trajectory::read_hotpath(&current_path).unwrap_or_else(|e| die(&e));
    println!(
        "## check-perf — {} vs baseline {}\n",
        current_path.display(),
        baseline_path.display()
    );
    match perf_gate::check(&baseline, &current, tolerance_pct) {
        Ok(report) => {
            print!("{}", report.render());
            if !report.pass {
                std::process::exit(1);
            }
        }
        Err(e) => die(&e),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("check-perf: {msg}");
    std::process::exit(2);
}

fn validate_bench() {
    let mut failed = false;
    for (doc, schema) in [
        (trajectory::output_path(), trajectory::schema_path()),
        (
            trajectory::hotpath_output_path(),
            trajectory::hotpath_schema_path(),
        ),
    ] {
        match trajectory::validate_files(&doc, &schema) {
            Ok(()) => println!(
                "## validate-bench — {} conforms to {}\n",
                doc.display(),
                schema.display()
            ),
            Err(report) => {
                eprintln!("## validate-bench FAILED\n\n{report}\n");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn print_headline(
    scale: ExperimentScale,
    cache: &mut std::collections::HashMap<&str, Vec<end_to_end::EndToEndRow>>,
) {
    println!("## Headline — max speedups over the zero-budget baseline\n");
    let mut t = TextTable::new(&["Dataset", "Loading ×", "Query ×", "End-to-end ×"]);
    for (key, ds) in [
        ("winlog", Dataset::WinLog),
        ("yelp", Dataset::Yelp),
        ("ycsb", Dataset::Ycsb),
    ] {
        let rows = cache
            .entry(key)
            .or_insert_with(|| end_to_end::run(ds, scale));
        let h = end_to_end::headline(rows);
        t.row(&[
            ds.to_string(),
            format!("{:.1}", h.loading_speedup),
            format!("{:.1}", h.query_speedup),
            format!("{:.1}", h.end_to_end_speedup),
        ]);
    }
    println!("{t}");
    println!("(paper: up to 21x loading, 23x query, 19x end-to-end at a 1 µs budget.)\n");
}
