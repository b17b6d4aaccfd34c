//! `boot_suite`: the paper's Fig. 7 path over the ten-program suite.
//!
//! Each op compiles one program, prepares and packages it with the
//! default configuration (XOR, Table I), sends it over a passive link,
//! installs it through the streaming HDE, loads it into the SoC and
//! runs it to exit. Ops cycle through the suite in order, and a run
//! measures whole cycles.

use crate::stats::{host_pace, process_cpu_s};
use crate::trace::{self, span};
use crate::{Delivered, Phase, Round, Size, Workload};
use eric_core::{
    DeliveryPolicy, Device, EncryptionConfig, FaultPlan, LossyChannel, ResilientDelivery,
    SoftwareSource,
};
use eric_hde::StreamingLoader;
use eric_puf::crp::EnrollmentRecord;
use eric_sim::{Soc, SocConfig};
use std::time::Instant;

/// Instruction budget of one run.
const FUEL: u64 = 200_000_000;

/// Modeled counts of every suite program at its default scale:
/// `name run_cycles instructions hde_cycles`. Speed-only changes must
/// leave them bit-identical.
const MODELED: &str = include_str!("../modeled_cycles.tsv");

/// One suite program, generated in set-up.
#[derive(Clone, Debug)]
pub struct Program {
    /// Suite name.
    pub name: &'static str,
    /// Assembly source at the run's scale.
    pub asm: String,
    /// Exit code the golden model expects.
    pub golden: i64,
    /// Modeled `(run cycles, instructions, HDE cycles)` this program
    /// must reproduce, when pinned.
    pub modeled: Option<(u64, u64, u64)>,
}

/// The set-up state of `boot_suite`. Inputs are public so tests can
/// substitute wrong ones.
pub struct Boot {
    /// The suite, in run order.
    pub programs: Vec<Program>,
    source: SoftwareSource,
    device: Device,
    cred: EnrollmentRecord,
    soc: Soc,
    delivery: ResilientDelivery,
    frame: Vec<u8>,
    received: Vec<u8>,
    plain: Vec<u8>,
    next_key: u64,
}

/// Parse the pinned modeled-count table.
fn pinned(name: &str) -> Option<(u64, u64, u64)> {
    MODELED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [n, cycles, insts, hde] if n == name => {
                Some((cycles.parse().ok()?, insts.parse().ok()?, hde.parse().ok()?))
            }
            _ => None,
        }
    })
}

impl Boot {
    /// Generate the suite's sources and golden exit codes, enroll the
    /// device and build the SoC. The seed picks the device and the
    /// program the cycle starts at.
    ///
    /// # Errors
    ///
    /// Never at present; kept fallible like the other set-ups.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let mut programs: Vec<Program> = eric_workloads::all()
            .into_iter()
            .map(|w| {
                let scale = match size {
                    Size::Full => w.default_scale,
                    Size::Tiny => w.smoke_scale,
                };
                Program {
                    name: w.name,
                    asm: (w.source)(scale),
                    golden: (w.golden)(scale),
                    modeled: (size == Size::Full).then(|| pinned(w.name)).flatten(),
                }
            })
            .collect();
        let first = seed as usize % programs.len();
        programs.rotate_left(first);
        let mut device = Device::with_seed(seed, "boot/unit");
        let cred = device.enroll();
        Ok(Boot {
            programs,
            source: SoftwareSource::new("perfbench-vendor"),
            device,
            cred,
            soc: Soc::new(SocConfig::default()),
            delivery: ResilientDelivery::new(
                LossyChannel::with_plan(FaultPlan::none()),
                DeliveryPolicy::default(),
            ),
            frame: Vec::new(),
            received: Vec::new(),
            plain: Vec::new(),
            next_key: 0,
        })
    }
}

impl Workload for Boot {
    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let Boot {
            programs,
            source,
            device,
            cred,
            soc,
            delivery,
            frame,
            received,
            plain,
            next_key,
        } = self;
        let config = EncryptionConfig::default();
        let mut phase = Phase {
            programs: programs.iter().map(|p| p.name).collect(),
            ..Phase::default()
        };
        let mut modeled: Vec<Option<(u64, u64, u64)>> = vec![None; programs.len()];
        let c = &mut phase.counters;
        let start = Instant::now();
        let mut op = 0u64;
        while op == 0 || start.elapsed().as_secs_f64() < seconds {
            let pace = host_pace();
            let (round, first) = (process_cpu_s(), phase.op_ms.len());
            for (index, program) in programs.iter().enumerate() {
                trace::set_op(op);
                op += 1;
                phase.op_program.push(index);
                let t = process_cpu_s();
                let op_span = span("op");
                let fail = |stage: &str, e: &dyn std::fmt::Display| {
                    format!("{}: {stage} failed: {e}", program.name)
                };
                let image = {
                    let _s = span("asm.compile");
                    source.compile(&program.asm, config.compress)
                }
                .map_err(|e| fail("compile", &e))?;
                let prepared = {
                    let _s = span("source.prepare");
                    source.prepare_image(&image, &config)
                }
                .map_err(|e| fail("prepare", &e))?;
                {
                    let _s = span("source.package");
                    source.package_prepared_into(&prepared, cred, frame)
                }
                .map_err(|e| fail("package", &e))?;

                let mut loaded = None;
                let report = {
                    let _s = span("delivery.deliver");
                    Delivered::from(delivery.deliver_verified(*next_key, frame, |package| {
                        {
                            let _s = span("package.serialize");
                            package.serialize_into(received);
                        }
                        let _s = span("hde.install");
                        plain.clear();
                        let loader = StreamingLoader::new(device.loader());
                        match loader.process_with(&received[..], |_, seg| {
                            plain.extend_from_slice(seg);
                        }) {
                            Ok(report) => {
                                c.install_bytes += report.payload_len as u64;
                                loaded = Some((
                                    report.text_len,
                                    report.cycles.total(),
                                    package.text_base,
                                    package.data_base,
                                    package.entry,
                                ));
                                Ok(())
                            }
                            Err(e) => {
                                c.hde_rejected += 1;
                                Err(e.into())
                            }
                        }
                    }))
                };
                *next_key += 1;
                phase.attempted += 1;
                c.attempts += u64::from(report.attempts);
                c.retries += u64::from(report.retries);
                phase.wire_bytes += report.wire_bytes;
                // `loaded` is set only by a verify that succeeded, which
                // ends the delivery as delivered.
                let Some((text_len, hde_cycles, text_base, data_base, entry)) = loaded else {
                    phase.failed += 1;
                    phase.op_ms.push(f64::INFINITY);
                    continue;
                };

                let (text, data) = plain.split_at(text_len);
                {
                    let _s = span("sim.load");
                    soc.load_raw(text_base, text, data_base, data, entry)
                }
                .map_err(|e| fail("load", &e))?;
                let run = {
                    let _s = span("sim.run");
                    soc.run(FUEL)
                }
                .map_err(|e| fail("run", &e))?;

                let check = span("check");
                if run.exit_code != program.golden {
                    return Err(format!(
                        "{}: exit code {} but the golden model expects {}",
                        program.name, run.exit_code, program.golden
                    ));
                }
                let counts = (run.cycles, run.instructions, hde_cycles);
                let expected = *modeled[index].get_or_insert(program.modeled.unwrap_or(counts));
                if counts != expected {
                    return Err(format!(
                        "{}: modeled (cycles, instructions, hde cycles) {counts:?} differ from {expected:?}",
                        program.name
                    ));
                }
                c.instructions += run.instructions;
                // The clock read is the benchmark's, outside the op's span.
                drop((check, op_span));
                phase.op_ms.push((process_cpu_s() - t) * 1e3);
            }
            let ops = phase.op_ms.len() - first;
            let seconds = process_cpu_s() - round;
            phase.rounds.push(Round { ops, seconds, pace });
        }
        for (cycles, _, hde) in modeled.into_iter().flatten() {
            phase.counters.modeled_cycles += cycles;
            phase.counters.modeled_hde_cycles += hde;
        }
        Ok(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_suite_program_has_pinned_modeled_counts() {
        for w in eric_workloads::all() {
            assert!(pinned(w.name).is_some(), "{} is not pinned", w.name);
        }
    }
}
