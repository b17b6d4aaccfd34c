//! Result output helpers and the shared measurement harness.
//!
//! Every floor-asserting bench measures through [`measure_robust`]
//! (warmup + median-of-N with IQR outlier rejection) so a noisy host
//! can't flake an assertion, and honors [`smoke_mode`]
//! (`ERIC_BENCH_SMOKE=1`): one iteration, no warmup, and the bench
//! binaries skip their floor asserts — CI uses it to cheaply prove
//! every bench binary still runs end to end.

use crate::json::ToJson;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `ERIC_BENCH_SMOKE=1`: run benches as 1-iteration smoke tests and
/// skip floor assertions.
pub fn smoke_mode() -> bool {
    std::env::var("ERIC_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One robust timing result: the outlier-rejected median plus the
/// interquartile range of the raw samples (the spread the
/// `BENCH_<name>.json` trajectory files track alongside the median).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Measurement {
    /// Median after Tukey-fence outlier rejection.
    pub median: Duration,
    /// `Q3 − Q1` of the raw samples (zero when fewer than 4 samples).
    pub iqr: Duration,
}

/// Robust wall-clock measurement of `f`.
///
/// Runs `warmup` unmeasured iterations (cache/branch-predictor
/// settling), then `iters` measured ones, rejects samples outside the
/// Tukey fences (`[Q1 − 1.5·IQR, Q3 + 1.5·IQR]` — a descheduled or
/// thermally-throttled run lands far outside), and returns the median
/// of the survivors. In [`smoke_mode`], one iteration and no warmup.
pub fn measure_robust<F: FnMut()>(warmup: u32, iters: u32, f: F) -> Duration {
    measure_stats(warmup, iters, f).median
}

/// [`measure_robust`], also reporting the sample spread.
pub fn measure_stats<F: FnMut()>(warmup: u32, iters: u32, mut f: F) -> Measurement {
    let (warmup, iters) = if smoke_mode() {
        (0, 1)
    } else {
        (warmup, iters.max(1))
    };
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    stats_of(&mut samples)
}

/// Robust statistics of an existing sample set (sorts in place).
///
/// For experiments that collect their own wall-clock samples (e.g. the
/// best-of-N fan-out loop) but still want the shared median/IQR
/// accounting for their [`record`] entries.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn stats_of(samples: &mut [Duration]) -> Measurement {
    samples.sort_unstable();
    let iqr = if samples.len() < 4 {
        Duration::ZERO
    } else {
        samples[3 * samples.len() / 4] - samples[samples.len() / 4]
    };
    Measurement {
        median: robust_median(samples),
        iqr,
    }
}

/// Median after IQR outlier rejection. For fewer than 4 samples the
/// quartiles are meaningless; plain median is returned.
fn robust_median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    if samples.len() < 4 {
        return samples[samples.len() / 2];
    }
    let q1 = samples[samples.len() / 4];
    let q3 = samples[3 * samples.len() / 4];
    let iqr = q3 - q1;
    let fence = iqr + iqr / 2; // 1.5 × IQR without float round-trips
    let lo = q1.saturating_sub(fence);
    let hi = q3 + fence;
    let kept: Vec<Duration> = samples
        .iter()
        .copied()
        .filter(|&s| s >= lo && s <= hi)
        .collect();
    // The median always lies inside the fences, so `kept` is never
    // empty.
    kept[kept.len() / 2]
}

/// One machine-readable bench measurement: a row of the
/// `BENCH_<name>.json` trajectory file.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Experiment label, unique within one bench binary.
    pub experiment: String,
    /// Robust median wall time, seconds.
    pub median_s: f64,
    /// Interquartile range of the raw samples, seconds.
    pub iqr_s: f64,
    /// Throughput for byte-denominated experiments, `null` otherwise.
    pub bytes_per_sec: Option<f64>,
}

crate::impl_json_struct!(BenchRecord {
    experiment,
    median_s,
    iqr_s,
    bytes_per_sec
});

/// Process-wide record registry, drained by [`write_bench_json`]. A
/// bench binary is one process, so "the registry" is "this binary's
/// records".
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Append one measurement to this binary's `BENCH_<name>.json` records.
///
/// `bytes` is the per-iteration byte count for throughput experiments
/// (serialized as bytes/sec); pass `None` for experiments with no byte
/// denomination.
pub fn record(experiment: &str, m: Measurement, bytes: Option<u64>) {
    let median_s = m.median.as_secs_f64();
    RECORDS
        .lock()
        .expect("bench record registry poisoned")
        .push(BenchRecord {
            experiment: experiment.to_string(),
            median_s,
            iqr_s: m.iqr.as_secs_f64(),
            bytes_per_sec: bytes.map(|b| b as f64 / median_s.max(f64::EPSILON)),
        });
}

/// [`measure_stats`] + [`record`] under `experiment`, returning the
/// median — the one-line way for an experiment to both drive its
/// report and leave a trajectory record.
pub fn measure_recorded<F: FnMut()>(
    experiment: &str,
    bytes: Option<u64>,
    warmup: u32,
    iters: u32,
    f: F,
) -> Duration {
    let m = measure_stats(warmup, iters, f);
    record(experiment, m, bytes);
    m.median
}

/// Run `f` once and [`record`] its wall time as `experiment` — for
/// report generators that do their own internal timing (or none).
pub fn record_elapsed<T>(experiment: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    record(
        experiment,
        Measurement {
            median: t.elapsed(),
            iqr: Duration::ZERO,
        },
        None,
    );
    out
}

/// One floor of a bench run: a row of the `BENCH_<name>.json` `floors`
/// list.
#[derive(Clone, Debug)]
pub struct FloorRecord {
    /// Floor label, unique within one bench binary.
    pub floor: String,
    /// The measured value, `null` when the host could not measure it.
    pub value: Option<f64>,
    /// The least value the floor accepts.
    pub min: f64,
    /// `"passed"`, or `"skipped: <reason>"`.
    pub status: String,
}

crate::impl_json_struct!(FloorRecord {
    floor,
    value,
    min,
    status
});

/// Process-wide floor registry, drained by [`write_bench_json`].
static FLOORS: Mutex<Vec<FloorRecord>> = Mutex::new(Vec::new());

/// Assert that `value` reaches `min`, unless the floor is skipped — in
/// [`smoke_mode`], or when `skip` names why it does not apply on this
/// host (or `value` is `None`). Either way the outcome is printed and
/// recorded for `BENCH_<name>.json`: a skipped floor is recorded as
/// skipped, never as passed.
///
/// # Panics
///
/// Panics with `what` when the floor applies and `value < min`.
pub fn check_floor(floor: &str, value: Option<f64>, min: f64, skip: Option<&str>, what: &str) {
    let skip = if smoke_mode() {
        Some("smoke mode")
    } else {
        skip
    };
    let status = match (skip, value) {
        (None, Some(v)) => {
            assert!(
                v >= min,
                "{what}: floor {floor} needs >= {min}, measured {v:.2}"
            );
            println!("floor {floor} OK: {v:.2} >= {min}");
            "passed".to_string()
        }
        (reason, _) => {
            let reason = reason.unwrap_or("not measured on this host");
            println!("floor {floor} skipped: {reason}");
            format!("skipped: {reason}")
        }
    };
    FLOORS
        .lock()
        .expect("bench floor registry poisoned")
        .push(FloorRecord {
            floor: floor.to_string(),
            value,
            min,
            status,
        });
}

/// Drain every [`record`]ed measurement into
/// `target/eric-results/BENCH_<bench>.json`.
///
/// Every bench binary calls this once at exit, so each run leaves a
/// uniform machine-readable snapshot (experiment, median, IQR,
/// bytes/sec, plus the resolved hash-engine pair the process ran on)
/// and the perf trajectory can be compared across PRs — and across
/// hosts with different hash hardware — without parsing the
/// human-readable tables. The schema is documented in
/// `docs/BENCHMARKS.md`.
pub fn write_bench_json(bench: &str) {
    struct BenchFile {
        bench: String,
        smoke: bool,
        hash_engine: String,
        compress_engine: String,
        records: Vec<BenchRecord>,
        floors: Vec<FloorRecord>,
    }
    crate::impl_json_struct!(BenchFile {
        bench,
        smoke,
        hash_engine,
        compress_engine,
        records,
        floors
    });
    let records = std::mem::take(&mut *RECORDS.lock().expect("bench record registry poisoned"));
    let floors = std::mem::take(&mut *FLOORS.lock().expect("bench floor registry poisoned"));
    write_json(
        &format!("BENCH_{bench}"),
        &BenchFile {
            bench: bench.to_string(),
            smoke: smoke_mode(),
            hash_engine: eric_crypto::sha256::multibuffer::active()
                .name()
                .to_string(),
            compress_engine: eric_crypto::sha256::active_compress().name().to_string(),
            records,
            floors,
        },
    );
}

/// Directory where JSON result snapshots are written: the *workspace*
/// `target/eric-results` (benches run with the package directory as
/// CWD, so a relative path would land inside `crates/eric-bench`).
pub fn results_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    PathBuf::from(target).join("eric-results")
}

/// Write an experiment's JSON snapshot; prints a pointer on success and
/// is silent (stderr note) on failure — result files are a convenience,
/// not a correctness requirement.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = fs::write(&path, value.to_json()) {
        eprintln!("note: cannot write {}: {e}", path.display());
    } else {
        println!("\n[results saved to {}]", path.display());
    }
}

/// Print a banner for an experiment.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn robust_median_rejects_outliers() {
        // A descheduled 500 ms spike among ~10 ms samples must not
        // drag the median.
        let mut samples = vec![ms(10), ms(11), ms(10), ms(12), ms(11), ms(10), ms(500)];
        assert_eq!(robust_median(&mut samples), ms(11));
        // Without the outlier the answer is the same.
        let mut clean = vec![ms(10), ms(11), ms(10), ms(12), ms(11), ms(10)];
        assert_eq!(robust_median(&mut clean), ms(11));
    }

    #[test]
    fn robust_median_small_samples_fall_back_to_plain_median() {
        let mut one = vec![ms(7)];
        assert_eq!(robust_median(&mut one), ms(7));
        let mut three = vec![ms(9), ms(1), ms(5)];
        assert_eq!(robust_median(&mut three), ms(5));
    }

    #[test]
    fn stats_report_median_and_iqr() {
        let mut samples = vec![
            ms(10),
            ms(11),
            ms(12),
            ms(13),
            ms(14),
            ms(15),
            ms(16),
            ms(17),
        ];
        let m = stats_of(&mut samples);
        assert_eq!(m.median, ms(14));
        assert_eq!(m.iqr, ms(16) - ms(12));
        // Too few samples for quartiles: IQR degrades to zero.
        let mut three = vec![ms(9), ms(1), ms(5)];
        assert_eq!(stats_of(&mut three).iqr, Duration::ZERO);
    }

    #[test]
    fn records_land_in_the_registry() {
        // Other tests may record concurrently, so assert containment,
        // not exact registry contents.
        record(
            "registry-probe",
            Measurement {
                median: Duration::from_secs(2),
                iqr: Duration::from_millis(1),
            },
            Some(4 << 20),
        );
        let records = RECORDS.lock().unwrap();
        let probe = records
            .iter()
            .find(|r| r.experiment == "registry-probe")
            .expect("probe recorded");
        assert!((probe.median_s - 2.0).abs() < 1e-9);
        assert!((probe.iqr_s - 1e-3).abs() < 1e-9);
        let bps = probe.bytes_per_sec.expect("byte-denominated");
        assert!((bps - (4 << 20) as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn measure_robust_counts_iterations() {
        let mut calls = 0u32;
        let d = measure_robust(2, 5, || calls += 1);
        if smoke_mode() {
            assert_eq!(calls, 1);
        } else {
            assert_eq!(calls, 7); // 2 warmup + 5 measured
        }
        assert!(d < Duration::from_secs(1));
    }
}
