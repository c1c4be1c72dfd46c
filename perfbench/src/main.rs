//! Measured serving benchmark for TeamNet.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`workloads::WORKLOADS`]) on a real loopback
//! cluster, checks every reply against a precomputed reference, and
//! prints each metric by name, unit and sample count, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics with no wrappers installed; `--trace 1` runs the
//! workload untraced for half the time and traced for the other half,
//! writes the spans to `.perfbench_out/`, and rebuilds the per-layer
//! metrics from that file. Exits 1 when a reply is wrong or missing.

mod oracle;
mod stats;
mod tap;
mod trace;
mod workloads;

use stats::{quantile, windowed};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use trace::{layer_metrics, Dump, Recorder};
use workloads::{Inputs, Phase, Workload, LATENCY_LIMIT_MS, WORKLOADS};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// COST.json's certified forward FLOPs for MLP-2 at batch 1.
const MLP2_CERTIFIED_FLOPS: u64 = 203_530;
/// Where span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, if it runs successfully.
fn first_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string()).filter(|_| out.status.success())
}

/// The commit of the working directory's own git checkout; git is not
/// allowed to look above it, so a plain source tree reports `None`.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent()?),
    )
}

/// Host and build facts every result carries.
fn provenance(args: &Args) -> BTreeMap<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut p = BTreeMap::new();
    p.insert("nproc".into(), nproc.to_string());
    p.insert(
        "TEAMNET_THREADS".into(),
        std::env::var(teamnet_tensor::pool::THREADS_ENV).unwrap_or_else(|_| "unset".into()),
    );
    p.insert(
        "threads".into(),
        teamnet_tensor::ParallelConfig::from_env()
            .threads()
            .to_string(),
    );
    p.insert(
        "commit".into(),
        git_commit().unwrap_or_else(|| "unknown".into()),
    );
    p.insert(
        "rustc".into(),
        first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into()),
    );
    p.insert("workload".into(), args.workload.name.into());
    p.insert("seed".into(), args.seed.to_string());
    p
}

/// MLP-2's batch-1 FLOPs by `per_layer_profile`, the count `nn.gflops`
/// divides by.
fn mlp2_profile_flops() -> u64 {
    teamnet_core::build_expert(&teamnet_nn::ModelSpec::mlp(2, 128), 0)
        .per_layer_profile(&[1, 1, 28, 28])
        .iter()
        .map(|l| l.flops)
        .sum()
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn end_to_end(phase: &Phase, setups: &[f64]) -> Result<Vec<Metric>, String> {
    let w = windowed(&phase.samples, 0.0, LATENCY_LIMIT_MS);
    let per_window: Vec<String> = w
        .windows
        .iter()
        .map(|x| format!("{:.3}/{:.3}/{:.1}", x.p50, x.p99, x.rate))
        .collect();
    println!("windows p50_ms/p99_ms/rps {}", per_window.join(" "));
    let windows = format!(
        "n={} in {} windows over {:.3} s",
        w.count,
        w.windows.len(),
        phase.elapsed_s
    );
    let quiet = format!(
        "{windows}, quietest window{}",
        if w.p99_supported { "" } else { " unsupported" }
    );
    let metric = |name: &str, unit, value, note: String| Metric {
        name: name.into(),
        unit,
        value,
        note,
    };
    Ok(vec![
        metric(
            "latency_p50_ms",
            "ms",
            w.p50,
            format!("{windows}, median over windows"),
        ),
        metric("latency_p99_ms", "ms", w.quiet.p99, quiet.clone()),
        metric("throughput_rps", "1/s", w.quiet.rate, quiet.clone()),
        metric(
            "goodput_rps",
            "1/s",
            w.quiet.good_rate,
            format!("{quiet}, limit {LATENCY_LIMIT_MS} ms"),
        ),
        metric(
            "setup_s",
            "s",
            quantile(setups, 0.5).value,
            format!("median of {}", setups.len()),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb()?, "VmHWM".into()),
    ])
}

fn write_dump(args: &Args, dump: &Dump) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}.spans.tsv",
        args.workload.name, args.seed
    );
    std::fs::write(&path, dump.to_text()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// The `--trace 1` run: untraced half, traced half, span file, rebuild.
fn traced(
    args: &Args,
    inputs: &Inputs,
    meta: BTreeMap<String, String>,
) -> Result<(Vec<Metric>, Phase), String> {
    let half = args.seconds / 2.0;
    let plain = workloads::run(inputs, half, None)?;
    let rec = Arc::new(Recorder::default());
    let mut phase = workloads::run(inputs, half, Some(Arc::clone(&rec)))?;
    let mut meta = meta;
    let p50 = |p: &Phase| quantile(&p.latencies_ms(), 0.5).value;
    meta.insert("untraced_p50_ms".into(), p50(&plain).to_string());
    meta.insert("traced_p50_ms".into(), p50(&phase).to_string());
    meta.insert("attempted".into(), phase.attempted.to_string());
    meta.insert("rejected".into(), phase.rejected.to_string());
    meta.insert("backlog_rows".into(), phase.backlog_rows.to_string());
    let path = write_dump(args, &rec.snapshot(meta))?;
    drop(rec);
    // Every per-layer number comes from the file, not from memory.
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let dump = Dump::parse(&text)?;
    println!("spans {path} ({} spans)", dump.spans.len());
    for (leg, us) in trace::round_accounting(&dump) {
        println!("round-accounting {leg} mean {us:.3} us");
    }
    let metrics = layer_metrics(&dump)
        .into_iter()
        .map(|m| Metric {
            name: m.name.into(),
            unit: m.unit,
            value: m.value,
            note: format!(
                "n={}{}",
                m.count,
                match (m.supported, m.value.is_finite()) {
                    (true, _) => "",
                    (false, true) => " unsupported",
                    (false, false) => " n/a",
                }
            ),
        })
        .collect();
    // The traced phase's replies were checked too: fold the untraced
    // half's failures in so neither half can hide a wrong reply.
    phase.failed += plain.failed;
    phase.rejected += plain.rejected;
    phase.attempted += plain.attempted;
    phase.control_rejected &= plain.control_rejected;
    Ok((metrics, phase))
}

fn run(args: &Args) -> Result<bool, String> {
    let family = args.workload.family;
    let meta = provenance(args);
    let line: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("provenance {}", line.join(" "));
    let nproc: usize = meta["nproc"].parse().unwrap_or(1);
    if family.bench_threads() > nproc {
        return Err(format!(
            "{} needs {} generator/client threads but nproc is {nproc}",
            args.workload.name,
            family.bench_threads()
        ));
    }
    let flops = mlp2_profile_flops();
    if flops != MLP2_CERTIFIED_FLOPS {
        return Err(format!(
            "MLP-2 batch-1 profile FLOPs {flops} != COST.json {MLP2_CERTIFIED_FLOPS}"
        ));
    }
    println!(
        "check MLP-2 batch-1 per_layer_profile FLOPs {flops} = COST.json {MLP2_CERTIFIED_FLOPS}"
    );

    let inputs = Inputs::new(family, args.seed);
    let (metrics, phase) = if args.trace {
        traced(args, &inputs, meta)?
    } else {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut phase = Phase::default();
        for i in 0..SETUPS {
            let seconds = if i + 1 == SETUPS { args.seconds } else { 0.0 };
            phase = workloads::run(&inputs, seconds, None)?;
            setups.push(phase.setup_s);
        }
        (end_to_end(&phase, &setups)?, phase)
    };

    let wrong = phase.failed - phase.rejected;
    println!(
        "requests attempted={} failed={} rejected={} wrong_or_missing={} failed_frac={}",
        phase.attempted,
        phase.failed,
        phase.rejected,
        wrong,
        phase.failed as f64 / phase.attempted.max(1) as f64
    );
    println!(
        "health backlog_rows={} backlog_growing={} slo_met={}",
        phase.backlog_rows,
        phase.backlog_growing,
        quantile(&phase.latencies_ms(), 0.99).value <= LATENCY_LIMIT_MS
            && phase.failed * 100 <= phase.attempted
            && !phase.backlog_growing
    );
    println!(
        "negative-control wrong_seed_oracle_rejected={}",
        phase.control_rejected
    );
    for m in &metrics {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }

    let correct = wrong == 0 && phase.control_rejected && phase.attempted > 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        phase.attempted.max(1),
        phase.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a reply was wrong or missing");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn mlp2_profile_matches_the_cost_certificate() {
        assert_eq!(super::mlp2_profile_flops(), super::MLP2_CERTIFIED_FLOPS);
    }
}
