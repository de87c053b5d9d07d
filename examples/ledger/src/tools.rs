//! `repeat` and `compare`: the run-to-run spread of every end-to-end
//! metric against its bound, and one set of runs against another.

use crate::spec::{self, Better, Scale};
use crate::stats::quartiles;
use ciao_json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// workload → metric → one value per run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Runs this executable once as the driver would and returns the
/// parsed last line of its standard output.
fn run_child(workload: &str, seed: u64, seconds: u64, scale: Scale) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(Stdio::inherit());
    if scale == Scale::Quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {workload} with seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    ciao_json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))
}

fn summary_row(values: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, median, q3) = quartiles(values);
    (q1, median, q3, (q3 - q1) / median)
}

/// `repeat`: `n` runs per workload on seeds `seed`, `seed + 1`, …;
/// fails when a spread exceeds its metric's bound (`setup_s`, whose
/// spread the acceptance rule exempts, is reported only).
pub fn repeat(
    workloads: &[&str],
    n: usize,
    seed: u64,
    seconds: u64,
    scale: Scale,
    out: Option<&Path>,
) -> Result<(), String> {
    let mut samples = Samples::new();
    for &workload in workloads {
        for run in 0..n {
            let result = run_child(workload, seed + run as u64, seconds, scale)?;
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .ok_or("result has no metrics")?;
            for (name, body) in metrics {
                let value = body
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or("metric has no value")?;
                samples
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }

    let mut over = Vec::new();
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (workload, metrics) in &samples {
        for m in &spec::END_TO_END {
            let values = &metrics[m.name];
            if values.len() < 2 {
                println!(
                    "{workload:<20} {:<20} {:>14} {:>14.4} {:>14} {:>8} {:>6.2}  n=1 {}",
                    m.name, "", values[0], "", "", m.bound, m.unit
                );
                continue;
            }
            let (q1, median, q3, spread) = summary_row(values);
            let flag = if spread > m.bound && m.name != "setup_s" {
                over.push(format!("{workload}/{}", m.name));
                "  OVER BOUND"
            } else {
                ""
            };
            println!(
                "{workload:<20} {:<20} {q1:>14.4} {median:>14.4} {q3:>14.4} {spread:>8.4} {:>6.2}  n={} {}{flag}",
                m.name,
                m.bound,
                values.len(),
                m.unit
            );
        }
    }

    if let Some(path) = out {
        let body = JsonValue::object([
            ("scale", JsonValue::from(scale.label())),
            ("first_seed", JsonValue::from(seed as i64)),
            ("seconds", JsonValue::from(seconds as i64)),
            (
                "samples",
                JsonValue::object(samples.iter().map(|(workload, metrics)| {
                    let metrics = metrics.iter().map(|(name, values)| {
                        (
                            name.clone(),
                            JsonValue::array(values.iter().map(|&v| JsonValue::from(v))),
                        )
                    });
                    (workload.clone(), JsonValue::object(metrics))
                })),
            ),
        ]);
        std::fs::write(path, ciao_json::to_pretty_string(&body))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("spread over bound: {}", over.join(", ")))
    }
}

fn load_samples(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let body =
        ciao_json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    if body.get("scale").and_then(JsonValue::as_str) != Some(Scale::Full.label()) {
        return Err(format!(
            "{} was not measured at full scale; quick runs are a self-test only",
            path.display()
        ));
    }
    let mut samples = Samples::new();
    for (workload, metrics) in body
        .get("samples")
        .and_then(JsonValue::as_object)
        .ok_or("file has no samples")?
    {
        for (name, values) in metrics.as_object().ok_or("samples are malformed")? {
            let values = values
                .as_array()
                .ok_or("samples are malformed")?
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect();
            samples
                .entry(workload.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(samples)
}

/// `compare`: for every metric × workload, by how much `b`'s median is
/// worse than `a`'s, as a share of `a`'s. Worse by more than the bound
/// fails; a spread wider than the bound makes the pair `unresolved`.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (base, change) = (load_samples(a)?, load_samples(b)?);
    let mut regressed = Vec::new();
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound"
    );
    for (workload, metrics) in &base {
        for m in &spec::END_TO_END {
            let (Some(av), Some(bv)) = (
                metrics.get(m.name),
                change.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            if av.len() < 2 || bv.len() < 2 {
                return Err(format!(
                    "{workload}/{}: need at least two runs on each side",
                    m.name
                ));
            }
            let (_, a_median, _, a_spread) = summary_row(av);
            let (_, b_median, _, b_spread) = summary_row(bv);
            let worse = match m.better {
                Better::Lower => (b_median - a_median) / a_median,
                Better::Higher => (a_median - b_median) / a_median,
            };
            let verdict = if a_spread > m.bound || b_spread > m.bound {
                "unresolved (spread wider than bound)"
            } else if worse > m.bound {
                regressed.push(format!("{workload}/{}", m.name));
                "REGRESSED"
            } else {
                "ok"
            };
            println!("{workload:<20} {:<20} {a_median:>14.4} {b_median:>14.4} {:>8.2}% {:>6.2}  {verdict}", m.name, worse * 100.0, m.bound);
        }
    }
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "regressed beyond bound (base {}): {}",
            a.display(),
            regressed.join(", ")
        ))
    }
}
