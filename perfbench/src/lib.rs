//! Benchmark of ERIC's deployed device path, end to end and per layer.
//!
//! Three workloads (see `README.md` for why each was chosen) drive the
//! repository's public API from one process: [`fleet`] rolls one image
//! to waves of devices through the provisioning daemon, [`boot`] runs
//! the paper's Fig. 7 path over the ten-program suite, and [`ota`]
//! patches one device through a closed-loop sequence of delta updates.
//!
//! Every call into a layer is timed from outside by a [`trace`] span,
//! and every output is checked; a check that fails aborts the run.

pub mod boot;
pub mod fleet;
pub mod ota;
pub mod stats;
pub mod trace;

use eric_core::DeliveryReport;
use stats::{host_pace, median, peak_rss_mib, percentile, process_cpu_s};
use std::time::Instant;
use trace::Span;

/// Input size of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// Layer counters a workload collects while it runs (traced or not).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Payload bytes of accepted streaming installs.
    pub install_bytes: u64,
    /// Frames the HDE rejected while verifying a delivery.
    pub hde_rejected: u64,
    /// Daemon batches submitted.
    pub submits: u64,
    /// Submitted batches whose preparation came from the cache.
    pub cache_hits: u64,
    /// Frame buffers the daemon's pool ever created.
    pub buffers_created: u64,
    /// Delivery attempts, summed over ops.
    pub attempts: u64,
    /// Delivery retries, summed over ops.
    pub retries: u64,
    /// Payload bytes of accepted delta applies.
    pub apply_bytes: u64,
    /// Simulated instructions retired.
    pub instructions: u64,
    /// Modeled run cycles of one pass over the workload's programs.
    pub modeled_cycles: u64,
    /// Modeled HDE load cycles of the same pass.
    pub modeled_hde_cycles: u64,
}

/// What one measured phase of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not end verified.
    pub failed: u64,
    /// Time of every op, ms, in order, as read; a failed op is `+inf`.
    /// Op and round times leave hypervisor steal out: `boot_suite` and
    /// `ota_patch` read the process's CPU time, `fleet_rollout` the
    /// client's CPU time plus its waits on the daemon.
    pub op_ms: Vec<f64>,
    /// Every round, in order: a wave, a suite cycle or a block of
    /// updates. Measuring ends on a round boundary.
    pub rounds: Vec<Round>,
    /// Bytes put on the wire, retransmissions included.
    pub wire_bytes: u64,
    /// Layer counters.
    pub counters: Counters,
    /// Program index of every op, for workloads that cycle programs.
    pub op_program: Vec<usize>,
    /// Program names the indices in `op_program` refer to.
    pub programs: Vec<&'static str>,
    /// Spans recorded during the phase (empty when untraced).
    pub spans: Vec<Span>,
}

impl Phase {
    /// Fold a later phase of the same run into this one. Op ids and
    /// span indices of `later` are shifted past this phase's.
    pub fn append(&mut self, later: Phase) {
        let (base_op, base_span) = (self.op_ms.len() as u64, self.spans.len());
        self.spans.extend(later.spans.into_iter().map(|mut s| {
            s.op += base_op;
            s.parent = s.parent.map(|p| p + base_span);
            s
        }));
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.rounds.extend(later.rounds);
        self.op_ms.extend(later.op_ms);
        self.wire_bytes += later.wire_bytes;
        self.op_program.extend(later.op_program);
        if self.programs.is_empty() {
            self.programs = later.programs;
        }
        let (c, l) = (&mut self.counters, later.counters);
        c.install_bytes += l.install_bytes;
        c.hde_rejected += l.hde_rejected;
        c.submits += l.submits;
        c.cache_hits += l.cache_hits;
        c.buffers_created = l.buffers_created;
        c.attempts += l.attempts;
        c.retries += l.retries;
        c.apply_bytes += l.apply_bytes;
        c.instructions += l.instructions;
        c.modeled_cycles = l.modeled_cycles;
        c.modeled_hde_cycles = l.modeled_hde_cycles;
    }

    /// The median over rounds of `stat(round's op latencies, seconds)`,
    /// with times at the reference pace. A host stall that slows a few
    /// rounds moves it less than it moves a figure over the whole run.
    fn median_over_rounds(&self, stat: impl Fn(&[f64], f64) -> f64) -> f64 {
        let mut at = 0;
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|round| {
                at += round.ops;
                let ops: Vec<f64> = self.op_ms[at - round.ops..at]
                    .iter()
                    .map(|t| t / round.pace)
                    .collect();
                stat(&ops, round.seconds / round.pace)
            })
            .collect();
        median(&mut per_round)
    }

    /// Median over rounds of the host's pace.
    pub fn pace(&self) -> f64 {
        median(&mut self.rounds.iter().map(|r| r.pace).collect::<Vec<_>>())
    }

    /// Verified ops per second, median over rounds.
    pub fn ops_per_s(&self) -> f64 {
        self.median_over_rounds(|ops, seconds| {
            ops.iter().filter(|t| t.is_finite()).count() as f64 / seconds
        })
    }

    /// Op latency percentile `q`, ms, median over rounds.
    pub fn op_ms(&self, q: f64) -> f64 {
        self.median_over_rounds(|ops, _| percentile(&mut ops.to_vec(), q))
    }
}

/// One round of a phase.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Ops the round ran.
    pub ops: usize,
    /// Time of the round, seconds, as read.
    pub seconds: f64,
    /// The host's pace, [`host_pace`], taken just before the round. Its
    /// times divided by it are times at the reference pace.
    pub pace: f64,
}

/// What a workload keeps of a delivery report. The report owns the
/// delivered package, so workloads convert it inside the delivery span:
/// freeing the package is the delivery's cost, not unattributed time.
#[derive(Clone, Copy, Debug)]
pub struct Delivered {
    /// Transmission attempts.
    pub attempts: u32,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Bytes put on the wire, retransmissions included.
    pub wire_bytes: u64,
    /// Whether the frame was delivered and verified.
    pub ok: bool,
}

impl<T> From<DeliveryReport<T>> for Delivered {
    fn from(report: DeliveryReport<T>) -> Self {
        Delivered {
            attempts: report.attempts,
            retries: report.retries,
            wire_bytes: report.wire_bytes,
            ok: report.status.is_delivered(),
        }
    }
}

/// A workload, set up and ready to measure.
pub trait Workload {
    /// Run closed-loop ops for about `seconds` (at least one full
    /// round), checking every output.
    ///
    /// # Errors
    ///
    /// A correctness check failed; the run must abort.
    fn measure(&mut self, seconds: f64) -> Result<Phase, String>;

    /// Checks that run once after measuring, outside the timed region.
    ///
    /// # Errors
    ///
    /// A correctness check failed; the run must abort.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fleet_rollout", "boot_suite", "ota_patch"];

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("wire_bytes_per_op", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`. The
/// `sim.run_ms.<program>` rows follow these.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("failed_frac", "ratio"),
    ("asm.compile_ms", "ms"),
    ("source.prepare_ms", "ms"),
    ("source.package_ms", "ms"),
    ("daemon.submit_ms", "ms"),
    ("daemon.frame_wait_ms", "ms"),
    ("daemon.cache_hit_ratio", "ratio"),
    ("daemon.buffers_created", "count"),
    ("delivery.attempts_per_op", "count"),
    ("delivery.retries", "count"),
    ("delivery.busy_ms", "ms"),
    ("package.serialize_ms", "ms"),
    ("hde.install_ms_p50", "ms"),
    ("hde.install_ms_p99", "ms"),
    ("hde.install_mib_s", "MiB/s"),
    ("hde.rejected", "count"),
    ("delta.prepare_ms", "ms"),
    ("delta.package_ms", "ms"),
    ("delta.apply_ms_p50", "ms"),
    ("delta.apply_ms_p99", "ms"),
    ("delta.apply_mib_s", "MiB/s"),
    ("delta.commit_ms", "ms"),
    ("sim.load_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.host_mips", "MIPS"),
    ("sim.modeled_cycles", "cycles"),
    ("sim.modeled_hde_cycles", "cycles"),
    ("sim.modeled_load_overhead_pct", "%"),
    ("host.pace", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.unattributed_frac_max", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// Names of the programs `boot_suite` cycles through, which give the
/// `sim.run_ms.<program>` per-layer rows.
pub fn suite_programs() -> Vec<&'static str> {
    eric_workloads::all().iter().map(|w| w.name).collect()
}

/// Set a workload up.
///
/// # Errors
///
/// Unknown workload name, or a set-up step failed.
pub fn setup(workload: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "fleet_rollout" => Box::new(fleet::Fleet::setup(seed, size)?),
        "boot_suite" => Box::new(boot::Boot::setup(seed, size)?),
        "ota_patch" => Box::new(ota::Ota::setup(seed, size)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Length of one untraced or traced chunk of a traced run, seconds.
const TRACE_CHUNK_S: f64 = 0.5;

/// Largest share of an op's time that stage spans may leave uncovered,
/// at the 99th percentile over ops of a traced run.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// How many times an untraced run sets its workload up, once before each
/// chunk of the run; `setup_s` is the median.
const SETUP_REPEATS: usize = 10;

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Ops attempted in the reported phase.
    pub attempted: u64,
    /// Ops of the reported phase that did not end verified.
    pub failed: u64,
    /// `(name, value, unit)` rows.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Spans of the traced phase (empty for an untraced run).
    pub spans: Vec<Span>,
}

/// Run `workload` for about `seconds`: untraced, reporting the
/// end-to-end metrics, or traced, reporting the per-layer metrics.
///
/// An untraced run measures [`SETUP_REPEATS`] chunks and times a set-up
/// before each. A traced run sets up once and alternates untraced and
/// traced chunks, so it can report the tracing overhead.
///
/// # Errors
///
/// Set-up failed or a correctness check failed.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<RunResult, String> {
    let (phase, metrics) = if traced {
        // Alternate short untraced and traced chunks, so a drift in the
        // host's speed cannot pass for tracing overhead.
        let mut bench = setup(workload, seed, size)?;
        let (mut plain, mut phase) = (Phase::default(), Phase::default());
        let start = Instant::now();
        for chunk in 0.. {
            if chunk % 2 == 0 {
                plain.append(bench.measure(TRACE_CHUNK_S)?);
                continue;
            }
            trace::enable();
            let traced = bench.measure(TRACE_CHUNK_S);
            let spans = trace::take();
            phase.append(Phase { spans, ..traced? });
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let metrics = per_layer(&phase, &plain);
        let unattributed = metrics
            .iter()
            .find(|m| m.0 == "trace.unattributed_frac")
            .map_or(0.0, |m| m.1);
        if unattributed > MAX_UNATTRIBUTED {
            return Err(format!(
                "stage spans leave {unattributed:.3} of an op's time unattributed at the 99th percentile, above {MAX_UNATTRIBUTED}"
            ));
        }
        bench.finish()?;
        (phase, metrics)
    } else {
        // One set-up before each chunk of the run, so the set-ups sample
        // the host across the run, as the ops do. The run goes on with
        // the first; the later ones are timed and dropped.
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        let mut bench = timed_setup(workload, seed, size, &mut setup_s)?;
        let mut phase = Phase::default();
        let start = Instant::now();
        for chunk in 1..=SETUP_REPEATS {
            if chunk > 1 {
                drop(timed_setup(workload, seed, size, &mut setup_s)?);
            }
            let end = seconds * chunk as f64 / SETUP_REPEATS as f64;
            phase.append(bench.measure(end - start.elapsed().as_secs_f64())?);
        }
        bench.finish()?;
        let values = [
            median(&mut setup_s),
            phase.ops_per_s(),
            phase.op_ms(0.50),
            phase.op_ms(0.99),
            phase.wire_bytes as f64 / phase.attempted as f64,
            peak_rss_mib(),
        ];
        (phase, rows(&END_TO_END, values))
    };
    Ok(RunResult {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
        spans: phase.spans,
    })
}

/// Set `workload` up and push the set-up's process CPU time, at the
/// reference pace, to `times`.
fn timed_setup(
    workload: &str,
    seed: u64,
    size: Size,
    times: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let pace = host_pace();
    let t = process_cpu_s();
    let bench = setup(workload, seed, size)?;
    times.push((process_cpu_s() - t) / pace);
    Ok(bench)
}

/// Name every value by its `(name, unit)` row.
fn rows<const N: usize>(
    names: &[(&str, &'static str); N],
    values: [f64; N],
) -> Vec<(String, f64, &'static str)> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload does not use).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentile `q` of `values`, or 0 when there are none.
fn percentile_or_zero(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&mut values, q)
    }
}

/// Sum that is `+0` for no values (`Iterator::sum` gives `-0`).
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

/// Durations (ms) and self times (ms) of the spans named `name`.
fn durations(spans: &[Span], selfs: &[u64], name: &str) -> (Vec<f64>, Vec<f64>) {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &own)| (s.dur_ns() as f64 / 1e6, own as f64 / 1e6))
        .unzip()
}

/// The per-layer rows of a traced phase; `plain` is the untraced phase
/// of the same run, for the tracing overhead.
fn per_layer(phase: &Phase, plain: &Phase) -> Vec<(String, f64, &'static str)> {
    let spans = &phase.spans;
    let selfs = trace::self_times(spans);
    let ops = phase.attempted as f64;
    let c = &phase.counters;
    let dur = |name: &str| durations(spans, &selfs, name).0;
    let pct = |name: &str, q: f64| percentile_or_zero(dur(name), q);
    let total = |name: &str| sum(&dur(name));
    let mib_s = |bytes: u64, ms: f64| ratio(bytes as f64 / f64::from(1 << 20), ms / 1e3);
    let (op_dur, op_self) = durations(spans, &selfs, "op");
    let unattributed: Vec<f64> = op_dur
        .iter()
        .zip(&op_self)
        .map(|(&d, &s)| ratio(s, d))
        .collect();

    let values = [
        phase.failed as f64 / ops,
        pct("asm.compile", 0.5),
        pct("source.prepare", 0.5),
        pct("source.package", 0.5),
        pct("daemon.submit", 0.5),
        total("daemon.recv") / ops,
        ratio(c.cache_hits as f64, c.submits as f64),
        c.buffers_created as f64,
        c.attempts as f64 / ops,
        c.retries as f64,
        sum(&durations(spans, &selfs, "delivery.deliver").1) / ops,
        pct("package.serialize", 0.5),
        pct("hde.install", 0.50),
        pct("hde.install", 0.99),
        mib_s(c.install_bytes, total("hde.install")),
        c.hde_rejected as f64,
        pct("delta.prepare", 0.5),
        pct("delta.package", 0.5),
        pct("delta.apply", 0.50),
        pct("delta.apply", 0.99),
        mib_s(c.apply_bytes, total("delta.apply")),
        pct("delta.commit", 0.5),
        pct("sim.load", 0.5),
        pct("sim.run", 0.5),
        ratio(c.instructions as f64 / 1e6, total("sim.run") / 1e3),
        c.modeled_cycles as f64,
        c.modeled_hde_cycles as f64,
        ratio(100.0 * c.modeled_hde_cycles as f64, c.modeled_cycles as f64),
        phase.pace(),
        percentile_or_zero(unattributed.clone(), 0.99),
        percentile_or_zero(unattributed, 1.0),
        1.0 - phase.ops_per_s() / plain.ops_per_s(),
        spans.len() as f64,
        op_dur.len() as f64,
    ];
    let mut out = rows(&PER_LAYER, values);

    // Host time of `sim.run` per suite program, by the op's program.
    let mut by_program = vec![Vec::new(); phase.programs.len()];
    for s in spans.iter().filter(|s| s.name == "sim.run") {
        if let Some(&p) = phase.op_program.get(s.op as usize) {
            by_program[p].push(s.dur_ns() as f64 / 1e6);
        }
    }
    for name in suite_programs() {
        let value = phase
            .programs
            .iter()
            .position(|&p| p == name)
            .map_or(0.0, |p| {
                percentile_or_zero(std::mem::take(&mut by_program[p]), 0.5)
            });
        out.push((format!("sim.run_ms.{name}"), value, "ms"));
    }
    out
}
