//! End-to-end benchmark of the assembled monitor (lustre-sim → Collector →
//! push leg → Aggregator → StoreStack → feed fan-out → EventConsumer, and
//! the sharded front), run in one process over loopback TCP.
//!
//! ```text
//! pipebench --workload NAME --seed N --seconds S --trace 0|1
//! pipebench steady --workload NAME --runs K [--seconds S] [--seed N] [--trace 0|1]
//! ```
//!
//! A run prints its metrics as the last line of standard output, one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. `steady` runs a workload K times on consecutive seeds and
//! prints each metric's median, quartiles and spread.

mod oracle;
mod pipeline;
mod probe;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;

/// A reported metric: name, unit, which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("drain_eps", "events/s", "higher"),
    m("cpu_us_per_event", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Printed by traced runs.
pub const PER_LAYER: &[Metric] = &[
    m("collector.us_per_record", "us", "lower"),
    m("collector.cpu_us_per_event", "us", "lower"),
    m("lustre.fid2path_per_kevent", "count", "lower"),
    m("collector.cache_hit_ratio", "ratio", "higher"),
    m("collector.cache_invalidations_per_kevent", "count", "lower"),
    m("push.cpu_us_per_event", "us", "lower"),
    m("pull.cpu_us_per_event", "us", "lower"),
    m("wire.bytes_per_event", "B", "lower"),
    m("wire.events_per_frame", "events", "higher"),
    m("push.ack_rtt_us_mean", "us", "lower"),
    m("push.resends", "count", "lower"),
    m("aggregator.cpu_us_per_event", "us", "lower"),
    m("aggregator.insert_lag_us_mean", "us", "lower"),
    m("store.query_ms_p50", "ms", "lower"),
    m("store_rpc.cpu_us_per_query", "us", "lower"),
    m("store.resident_mb", "MB", "lower"),
    m("fanout.cpu_us_per_event", "us", "lower"),
    m("subscriber.cpu_us_per_event", "us", "lower"),
    m("fanout.shed", "count", "lower"),
    m("subscriber.dropped", "count", "lower"),
    m("consumer.cpu_us_per_event", "us", "lower"),
    m("consumer.wait_us_per_event", "us", "lower"),
    m("consumer.live_ratio", "ratio", "higher"),
    m("cluster.scatter_query_ms_p50", "ms", "lower"),
    m("cluster.route_skew", "ratio", "lower"),
    m("cluster.degraded", "count", "lower"),
    m("lat_p50_ms", "ms", "lower"),
    m("lat.e2e_p99_ms", "ms", "lower"),
    m("query_p50_ms", "ms", "lower"),
    m("replay_eps", "events/s", "higher"),
    m("lat.input_wait_ms_p50", "ms", "lower"),
    m("lat.pipeline_ms_p50", "ms", "lower"),
    m("gen.late_ms_max", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("host.steal_pct", "%", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false, runs: 10 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => a.seconds = value.parse().map_err(bad)?,
            "--runs" => a.runs = value.parse().map_err(bad)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::Spec::by_name(&a.workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if a.seconds == 0 || a.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(a)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn render(out: &run::Outcome, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let v = out.metrics.get(metric.name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            return Err(format!("metric {} was not measured", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn run_once(a: &Args) -> Result<(), String> {
    let spec = workload::Spec::by_name(&a.workload).expect("checked by parse");
    let out = run::run(&spec, a.seed, a.seconds, a.trace)?;
    eprintln!("pipebench: {} seed {}: inputs generated in {:.3} s", a.workload, a.seed, out.gen_s);
    for f in &out.findings {
        eprintln!("pipebench: oracle: {f}");
    }
    let line = render(&out, if a.trace { PER_LAYER } else { END_TO_END })?;
    println!("{line}");
    Ok(())
}

/// Pulls `"name": {"value": V` pairs and the `failed`/`attempted` counts
/// out of a result line this program printed.
fn parse_result(line: &str) -> Option<(u64, u64, HashMap<String, f64>)> {
    let count = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
    };
    let mut named = HashMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for chunk in body.split("}, ").map(|c| c.trim_start_matches('{')) {
        let name = chunk.split('"').nth(1)?;
        let v: f64 = chunk.split("\"value\": ").nth(1)?.split(',').next()?.trim().parse().ok()?;
        named.insert(name.to_string(), v);
    }
    Some((count("attempted")?, count("failed")?, named))
}

fn steady(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let metrics = if a.trace { PER_LAYER } else { END_TO_END };
    let mut values: HashMap<String, Vec<f64>> = HashMap::new();
    for i in 0..a.runs {
        let seed = a.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let (attempted, failed, named) = parse_result(line)
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("run {seed} failed: {line}"))?;
        if !line.contains("\"correct\": true") {
            return Err(format!("run {seed} reported incorrect output"));
        }
        println!("seed {seed}: attempted {attempted} failed {failed}");
        for (k, v) in named {
            values.entry(k).or_default().push(v);
        }
    }
    println!(
        "{:<42} {:>10} {:>14} {:>14} {:>14} {:>9}",
        "metric", "unit", "q1", "median", "q3", "spread%"
    );
    for metric in metrics {
        let v = values.get(metric.name).cloned().unwrap_or_default();
        let (Some(q), Some(med)) = (stats::quartiles(&v), stats::median(&v)) else { continue };
        let spread = if med != 0.0 { (q[2] - q[0]) / med.abs() * 100.0 } else { 0.0 };
        println!(
            "{:<42} {:>10} {:>14.4} {:>14.4} {:>14.4} {:>9.2}",
            metric.name, metric.unit, q[0], med, q[2], spread
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (is_steady, rest) = match argv.first().map(String::as_str) {
        Some("steady") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let result = parse(rest).and_then(|a| if is_steady { steady(&a) } else { run_once(&a) });
    if let Err(e) = result {
        eprintln!("pipebench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric this program prints is declared in `BENCHMARK.json`
    /// in the right list, with the same unit and a direction.
    #[test]
    fn printed_metrics_are_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e_at = json.find("\"end_to_end\"").expect("end_to_end list");
        let layer_at = json.find("\"per_layer\"").expect("per_layer list");
        let section = |at: usize| {
            let rest = &json[at..];
            &rest[..rest.find(']').expect("list closes")]
        };
        for (list, metrics) in [(section(e2e_at), END_TO_END), (section(layer_at), PER_LAYER)] {
            assert_eq!(list.matches("\"name\"").count(), metrics.len(), "declared count differs");
            for metric in metrics {
                let decl = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    metric.name, metric.unit, metric.better
                );
                assert!(list.contains(&decl), "{} not declared as {decl}", metric.name);
            }
        }
        for w in workload::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "workload {} undeclared",
                w.name
            );
        }
    }

    #[test]
    fn result_line_round_trips_through_the_steady_parser() {
        let mut metrics = HashMap::new();
        for metric in END_TO_END {
            metrics.insert(metric.name, 1.25);
        }
        let out = run::Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics,
            findings: Vec::new(),
            gen_s: 0.0,
        };
        let line = render(&out, END_TO_END).unwrap();
        let (attempted, failed, named) = parse_result(&line).unwrap();
        assert_eq!((attempted, failed), (12, 0));
        assert_eq!(named.len(), END_TO_END.len());
        assert_eq!(named["peak_rss_mb"], 1.25);
    }
}
