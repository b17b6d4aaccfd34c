//! `ota_patch`: one device holding a verified 1 MiB image takes a
//! closed-loop sequence of delta updates.
//!
//! Each version changes the exit code in `.text` and one seeded data
//! word, so about two 4 KiB segments change. Each op compiles the new
//! version, prepares it cold, diffs and packages the delta, delivers it
//! over a 5% lossy link with `apply_delta` as the verify step, and runs
//! the patched image.

use crate::fleet::{FAULT_RATE, MAX_ATTEMPTS};
use crate::stats::{host_pace, process_cpu_s, SplitMix};
use crate::trace::{self, span};
use crate::{Delivered, Phase, Round, Size, Workload};
use eric_core::{
    DeliveryPolicy, Device, EncryptionConfig, FaultPlan, InstalledImage, LossyChannel,
    PreparedImage, ResilientDelivery, SoftwareSource,
};
use eric_puf::crp::EnrollmentRecord;
use std::time::Instant;

/// Updates per round; a run ends on a round boundary.
const ROUND: usize = 100;

/// Signature segment length of the OTA image.
const SEGMENT_LEN: u32 = 4096;

/// The set-up state of `ota_patch`.
pub struct Ota {
    /// One seeded data word per 4 KiB block of data.
    pub words: Vec<u32>,
    /// Version currently installed on the device.
    pub version: u64,
    source: SoftwareSource,
    config: EncryptionConfig,
    device: Device,
    cred: EnrollmentRecord,
    delivery: ResilientDelivery,
    installed: InstalledImage,
    current: PreparedImage,
    rng: SplitMix,
    wire: Vec<u8>,
    next_key: u64,
}

/// Source of `version`: exit code `version & 0xff`, and a data region
/// of 4 KiB blocks, each led by one word of `words`.
pub fn version_source(version: u64, words: &[u32]) -> String {
    let mut asm = String::with_capacity(24 * words.len() + 64);
    asm.push_str(".data\n");
    for w in words {
        asm.push_str(&format!(" .word {w}\n .zero 4092\n"));
    }
    asm.push_str(&format!(
        ".text\nmain:\n li a0, {}\n li a7, 93\n ecall\n",
        version & 0xff
    ));
    asm
}

impl Ota {
    /// Build version 0, install it on the device through a full frame,
    /// and keep its preparation as the base of the first delta.
    ///
    /// # Errors
    ///
    /// A set-up step failed.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let data_kib = match size {
            Size::Full => 1024,
            Size::Tiny => 64,
        };
        let mut rng = SplitMix::new(seed, 3);
        let words: Vec<u32> = (0..data_kib / 4).map(|_| rng.next_u64() as u32).collect();
        let source = SoftwareSource::new("perfbench-vendor");
        let config = EncryptionConfig::full().with_segments(SEGMENT_LEN);
        let mut device = Device::with_seed(seed, "ota/unit");
        let cred = device.enroll();
        let fail = |e: eric_core::EricError| format!("ota set-up: {e}");
        let image = source
            .compile(&version_source(0, &words), false)
            .map_err(fail)?;
        let current = source.prepare_image(&image, &config).map_err(fail)?;
        let (package, _) = source.package_prepared(&current, &cred).map_err(fail)?;
        let installed = device.install(&package).map_err(fail)?;
        Ok(Ota {
            words,
            version: 0,
            source,
            config,
            device,
            cred,
            delivery: ResilientDelivery::new(
                LossyChannel::with_plan(FaultPlan::uniform(seed, FAULT_RATE)),
                DeliveryPolicy {
                    max_attempts: MAX_ATTEMPTS,
                    ..DeliveryPolicy::default()
                },
            ),
            installed,
            current,
            rng,
            wire: Vec::new(),
            next_key: 0,
        })
    }
}

impl Workload for Ota {
    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut op = 0u64;
        while op == 0 || start.elapsed().as_secs_f64() < seconds {
            let pace = host_pace();
            let (round, first) = (process_cpu_s(), phase.op_ms.len());
            for _ in 0..ROUND {
                // The next version's source is input generation, outside
                // the op.
                let version = self.version + 1;
                let mut words = self.words.clone();
                let block = self.rng.below(words.len() as u64) as usize;
                words[block] = self.rng.next_u64() as u32;
                let asm = version_source(version, &words);

                trace::set_op(op);
                op += 1;
                let t = process_cpu_s();
                let op_span = span("op");
                let fail = |stage: &str, e: eric_core::EricError| {
                    format!("version {version}: {stage} failed: {e}")
                };
                let image = {
                    let _s = span("asm.compile");
                    self.source.compile(&asm, self.config.compress)
                }
                .map_err(|e| fail("compile", e))?;
                let next = {
                    let _s = span("source.prepare");
                    self.source.prepare_image(&image, &self.config)
                }
                .map_err(|e| fail("prepare", e))?;
                let delta = {
                    let _s = span("delta.prepare");
                    self.source.prepare_delta(&self.current, &next)
                }
                .map_err(|e| fail("delta prepare", e))?;
                {
                    let _s = span("delta.package");
                    self.source
                        .package_delta_into(&delta, &self.cred, &mut self.wire)
                }
                .map_err(|e| fail("delta package", e))?;

                let c = &mut phase.counters;
                let mut patched = None;
                let report = {
                    let _s = span("delivery.deliver");
                    let (device, installed) = (&self.device, &self.installed);
                    Delivered::from(self.delivery.deliver_delta_verified(
                        self.next_key,
                        &self.wire,
                        |frame| {
                            let _s = span("delta.apply");
                            match device.apply_delta(installed, frame) {
                                Ok(image) => {
                                    patched = Some(image);
                                    Ok(())
                                }
                                Err(e) => {
                                    c.hde_rejected += 1;
                                    Err(e)
                                }
                            }
                        },
                    ))
                };
                self.next_key += 1;
                phase.attempted += 1;
                c.attempts += u64::from(report.attempts);
                c.retries += u64::from(report.retries);
                phase.wire_bytes += report.wire_bytes;
                // `patched` is set only by an apply that succeeded, which ends
                // the delivery as delivered.
                let Some(image) = patched else {
                    phase.failed += 1;
                    phase.op_ms.push(f64::INFINITY);
                    continue;
                };
                c.apply_bytes += image.payload_len() as u64;
                {
                    // Freeing the superseded 1 MiB images is a cost of
                    // patching by copy, so it is a stage of its own.
                    let _s = span("delta.commit");
                    self.installed = image;
                    self.current = next;
                    self.words = words;
                }
                self.version = version;

                let run = {
                    let _s = span("sim.run");
                    self.device.run_installed(&self.installed)
                }
                .map_err(|e| fail("run", e))?;
                let check = span("check");
                if run.exit_code != (version & 0xff) as i64 {
                    return Err(format!(
                        "version {version}: exit code {} but expected {}",
                        run.exit_code,
                        version & 0xff
                    ));
                }
                c.instructions += run.run.instructions;
                c.modeled_cycles = run.run.cycles;
                // The clock read is the benchmark's, outside the op's span.
                drop((check, op_span));
                phase.op_ms.push((process_cpu_s() - t) * 1e3);
            }
            let ops = phase.op_ms.len() - first;
            let seconds = process_cpu_s() - round;
            phase.rounds.push(Round { ops, seconds, pace });
        }
        Ok(phase)
    }

    /// The patched image must equal a clean full install of the final
    /// version.
    fn finish(&mut self) -> Result<(), String> {
        let fail = |e: eric_core::EricError| format!("final clean install: {e}");
        let (package, _) = self
            .source
            .package_prepared(&self.current, &self.cred)
            .map_err(fail)?;
        let clean = self.device.install(&package).map_err(fail)?;
        if clean.fingerprint() != self.installed.fingerprint() {
            return Err(format!(
                "version {}: the patched image differs from a clean install",
                self.version
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_patch_that_differs_from_a_clean_install_aborts() {
        let mut ota = Ota::setup(2, Size::Tiny).unwrap();
        ota.measure(0.0).unwrap();
        ota.finish().unwrap();
        // The vendor's record of the installed version is now wrong.
        let other = version_source(ota.version + 7, &ota.words);
        let image = ota.source.compile(&other, false).unwrap();
        ota.current = ota.source.prepare_image(&image, &ota.config).unwrap();
        let err = ota.finish().unwrap_err();
        assert!(err.contains("differs from a clean install"), "{err}");
    }
}
