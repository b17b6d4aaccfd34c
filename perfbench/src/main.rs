//! `eric-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. A
//! traced run also writes its spans as JSON lines under `out/` in the
//! benchmark's directory. A failed correctness check prints the reason
//! on stderr and exits with code 1 without a result line.

use eric_perfbench::{run, Size, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON number; `+inf` (a percentile that landed on a failed op) is
/// written as `1e308`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "1e308".into()
    } else {
        "null".into()
    }
}

fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"sha256_multibuffer\":\"{}\",\"sha256_compress\":\"{}\",\"sim_engine\":\"{}\"}}}}",
        eric_crypto::sha256::multibuffer::active().name(),
        eric_crypto::sha256::active_compress().name(),
        eric_sim::SocConfig::default().engine.name(),
    )
}

fn write_trace(args: &Args, spans: &[eric_perfbench::trace::Span]) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let body = format!(
        "{}\n{}",
        host_fingerprint(),
        eric_perfbench::trace::to_json_lines(spans)
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eric-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    let result = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    ) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("eric-perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        match write_trace(&args, &result.spans) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("eric-perfbench: writing spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for (name, value, unit) in &result.metrics {
        eprintln!("{:<34} {:>16.6} {unit}", name, value);
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
