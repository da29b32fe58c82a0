//! End-to-end benchmark of the durable ArchIS stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench repeat --workload <name> --runs <k> [--seconds <s>] [--trace <0|1>] [--seed <first>]
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (each metric with
//! its value and unit). `--trace 0` reports the end-to-end metrics, `--trace
//! 1` the per-layer ones. `repeat` runs one workload `k` times, each with
//! the next seed, and prints each metric's median and quartiles.
//!
//! Every answer is checked against a shadow history computed from the
//! generated op stream (see `oracle.rs`). Run files (stores, span dumps) go
//! to `perfbench/out/` under the working directory.

mod bench;
mod oracle;
mod stack;
mod trace;

use bench::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <query_hot|query_spill|query_compressed|ingest_snapshot> \
         --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench repeat --workload <name> --runs <k> [--seconds <s>] [--trace <0|1>] [--seed <first>]"
    );
    ExitCode::from(2)
}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn main() -> ExitCode {
    // `ARCHIS_*` variables switch engine behaviour inside the library
    // (group commit, forced access paths, I/O pipeline); a run under any of
    // them measures another program.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ARCHIS_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (repeat, rest) = match args.first().map(String::as_str) {
        Some("repeat") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let parsed = flags(rest).and_then(|f| {
        let workload = get::<String>(&f, "workload", None)?;
        let workload =
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let trace: u8 = get(&f, "trace", Some(0))?;
        if trace > 1 {
            return Err("--trace takes 0 or 1".into());
        }
        Ok((f.clone(), workload, trace == 1))
    });
    let (f, workload, traced) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if repeat {
        return match repeat_runs(&f, workload, traced) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => usage(&e),
        };
    }
    let (seed, seconds) = match (
        get::<u64>(&f, "seed", None),
        get::<f64>(&f, "seconds", None),
    ) {
        (Ok(s), Ok(t)) if t > 0.0 => (s, t),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
        _ => return usage("--seconds must be positive"),
    };
    let dir =
        PathBuf::from("perfbench/out").join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let out = bench::run(workload, seed, seconds, traced, &dir);
    // Keep the span dump, drop the stores.
    if traced {
        let name = format!("trace-{}-{seed}.jsonl", workload.name());
        let _ = std::fs::rename(dir.join(&name), PathBuf::from("perfbench/out").join(&name));
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "perfbench: {} seed {seed}: {} attempted, {} failed (Q1..Q6: {:?})",
        workload.name(),
        out.attempted,
        out.failed,
        out.failed_by_class
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|(name, _)| bench::reported(name, traced))
        .map(|(name, (v, unit))| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_num(*v)
            )
        })
        .collect();
    println!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    let q = |j: usize| -> f64 {
        if n == 1 {
            return s[0];
        }
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let i = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - i as f64;
        s[i - 1] + (s[i] - s[i - 1]) * delta
    };
    (q(1), q(2), q(3))
}

fn repeat_runs(
    f: &BTreeMap<String, String>,
    workload: Workload,
    traced: bool,
) -> Result<(), String> {
    let runs: usize = get(f, "runs", Some(10))?;
    let seconds: u64 = get(f, "seconds", Some(10))?;
    let first: u64 = get(f, "seed", Some(1))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut fail_shares = Vec::new();
    for seed in first..first + runs as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("run with seed {seed} failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or_default().to_string();
        println!("seed {seed}: {last}");
        let (attempted, failed) = (
            field(&last, "\"attempted\": "),
            field(&last, "\"failed\": "),
        );
        fail_shares.push(format!("{failed}/{attempted}"));
        let body = last.split("\"metrics\": {").nth(1).unwrap_or_default();
        for part in body.split("}, ") {
            let name = part.split('"').nth(1).unwrap_or_default().to_string();
            let value = field(part, "\"value\": ");
            let unit = part.split("\"unit\": \"").nth(1).unwrap_or_default();
            let unit = unit.split('"').next().unwrap_or_default().to_string();
            if !name.is_empty() {
                let e = values.entry(name).or_insert_with(|| (Vec::new(), unit));
                e.0.push(value);
            }
        }
    }
    println!("failed/attempted per run: {}", fail_shares.join(" "));
    println!(
        "{:<42} {:>14} {:>14} {:>14} {:>9}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (v, unit)) in &values {
        let (q1, med, q3) = quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<42} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>9.4}  {unit}");
    }
    Ok(())
}

fn field(s: &str, key: &str) -> f64 {
    s.split(key)
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}
