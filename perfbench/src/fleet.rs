//! `fleet_rollout`: the vendor rolls one firmware image to back-to-back
//! waves of enrolled devices.
//!
//! Frames come from the provisioning daemon (cache warmed in set-up),
//! cross a 5% lossy link under retrying delivery, and are verified by
//! each device's streaming install. One op is one device, from wave
//! submit to verified install.

use crate::stats::{host_pace, ClientClock, SplitMix};
use crate::trace::{self, span};
use crate::{Delivered, Phase, Round, Size, Workload};
use eric_asm::Image;
use eric_core::{
    DeliveryPolicy, EncryptionConfig, FaultPlan, LossyChannel, ProvisioningDaemon,
    ResilientDelivery, SoftwareSource,
};
use eric_crypto::cipher::CipherKind;
use eric_hde::{SecureLoader, StreamingLoader, DEFAULT_SEGMENT_LEN};
use eric_puf::crp::{Challenge, CrpDatabase, EnrollmentRecord};
use eric_puf::device::{PufDevice, PufDeviceConfig};
use std::time::Instant;

/// Per-attempt fault rate of the link.
pub const FAULT_RATE: f64 = 0.05;

/// Delivery attempts per frame. At a 5% rate per fault kind an attempt
/// fails with probability about 0.14, so eight attempts leave about
/// 2e-7 of frames undelivered.
pub const MAX_ATTEMPTS: u32 = 8;

/// The set-up state of `fleet_rollout`. Inputs are public so tests can
/// substitute wrong ones.
pub struct Fleet {
    /// The vendor's resident daemon.
    pub daemon: ProvisioningDaemon,
    /// The firmware image every wave rolls out.
    pub image: Image,
    /// Build configuration: SHA-CTR, default segments.
    pub config: EncryptionConfig,
    /// The enrolled fleet: each device's HDE over its own PUF. The
    /// rollout never runs the SoC, so none is built.
    pub devices: Vec<SecureLoader>,
    /// Credentials the vendor builds for, one per device.
    pub creds: Vec<EnrollmentRecord>,
    delivery: ResilientDelivery,
    expected: Vec<u8>,
    received: Vec<u8>,
    next_key: u64,
}

/// Firmware source: a short text and `data_kib` KiB of data with one
/// seeded word in every 4 KiB, so no two segments hash alike.
pub fn firmware_source(rng: &mut SplitMix, data_kib: usize) -> String {
    let mut asm = String::from(".data\n");
    for _ in 0..data_kib / 4 {
        asm.push_str(&format!(" .word {}\n .zero 4092\n", rng.next_u64() as u32));
    }
    asm.push_str(".text\nmain:\n li a0, 0\n li a7, 93\n ecall\n");
    asm
}

impl Fleet {
    /// Build the image, enroll the fleet, start the daemon and warm its
    /// cache.
    ///
    /// # Errors
    ///
    /// A set-up step failed.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let (data_kib, fleet_size) = match size {
            Size::Full => (256, 128),
            Size::Tiny => (16, 4),
        };
        let mut rng = SplitMix::new(seed, 1);
        let source = SoftwareSource::new("perfbench-vendor");
        let image = source
            .compile(&firmware_source(&mut rng, data_kib), false)
            .map_err(|e| format!("fleet image: {e}"))?;
        let config = EncryptionConfig::full().with_cipher(CipherKind::ShaCtr);
        let devices: Vec<SecureLoader> = (0..fleet_size)
            .map(|_| {
                SecureLoader::new(PufDevice::from_seed(
                    rng.next_u64(),
                    PufDeviceConfig::paper(),
                ))
            })
            .collect();
        let mut db = CrpDatabase::new();
        let creds: Vec<EnrollmentRecord> = devices
            .iter()
            .enumerate()
            .map(|(i, hde)| {
                let challenge: Vec<u8> = (0..32).map(|_| rng.next_u64() as u8).collect();
                let keys = hde.keys();
                db.enroll(
                    &format!("fleet/unit-{i}"),
                    keys.puf(),
                    &Challenge::from_bytes(&challenge),
                    keys.epoch(),
                )
            })
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1));
        let daemon = ProvisioningDaemon::start(source, workers.max(1));
        // One device warms the prepared-image cache, which every wave
        // then hits.
        let warm = daemon
            .submit(&image, &config, creds[..1].to_vec())
            .map_err(|e| format!("fleet warm-up: {e}"))?;
        for outcome in warm.iter() {
            let frame = outcome.result.map_err(|e| format!("fleet warm-up: {e}"))?;
            warm.recycle(frame);
        }
        let mut expected = image.text.clone();
        expected.extend_from_slice(&image.data);
        Ok(Fleet {
            daemon,
            image,
            config,
            devices,
            creds,
            delivery: ResilientDelivery::new(
                LossyChannel::with_plan(FaultPlan::uniform(seed, FAULT_RATE)),
                DeliveryPolicy {
                    max_attempts: MAX_ATTEMPTS,
                    ..DeliveryPolicy::default()
                },
            ),
            expected,
            received: Vec::new(),
            next_key: 0,
        })
    }
}

impl Workload for Fleet {
    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let Fleet {
            daemon,
            image,
            config,
            devices,
            creds,
            delivery,
            expected,
            received,
            next_key,
        } = self;
        let segment_len = DEFAULT_SEGMENT_LEN as usize;
        let mut phase = Phase::default();
        let c = &mut phase.counters;
        // Ops and waves are timed on the client's clock: its CPU time
        // plus its waits on the daemon, so a daemon that falls behind
        // shows as time the client spends blocked in `recv`.
        let mut clock = ClientClock::new(daemon.workers());
        let start = Instant::now();
        let mut op = 0u64;
        while op == 0 || start.elapsed().as_secs_f64() < seconds {
            // The daemon is idle between waves, so the probe runs alone.
            let pace = host_pace();
            let (wave_start, first) = (clock.now(), phase.op_ms.len());
            let mut wave = None;
            for _ in 0..creds.len() {
                trace::set_op(op);
                op += 1;
                // An op span covers the client's time on this device;
                // the wave's submit is charged to its first device.
                let op_span = span("op");
                let handle = match &mut wave {
                    Some(handle) => handle,
                    None => {
                        let _s = span("daemon.submit");
                        let handle = clock
                            .wait(|| daemon.submit(image, config, Vec::clone(creds)))
                            .map_err(|e| format!("daemon submit: {e}"))?;
                        c.submits += 1;
                        c.cache_hits += u64::from(handle.cache_hit());
                        wave.insert(handle)
                    }
                };
                let outcome = {
                    let _s = span("daemon.recv");
                    clock.wait(|| handle.recv())
                }
                .ok_or("daemon stream ended before the wave did")?;
                phase.attempted += 1;
                let Ok(frame) = outcome.result else {
                    phase.failed += 1;
                    phase.op_ms.push(f64::INFINITY);
                    continue;
                };
                let device = &devices[outcome.index];
                let mut mismatch = false;
                let report = {
                    let _s = span("delivery.deliver");
                    Delivered::from(
                        delivery.deliver_verified(*next_key, &frame.bytes, |package| {
                            {
                                let _s = span("package.serialize");
                                package.serialize_into(received);
                            }
                            let _s = span("hde.install");
                            let loader = StreamingLoader::new(device);
                            let verdict = loader.process_with(&received[..], |i, plain| {
                                let at = i * segment_len;
                                mismatch |= expected.get(at..at + plain.len()) != Some(plain);
                            });
                            match verdict {
                                Ok(report) => {
                                    mismatch |= report.payload_len != expected.len();
                                    c.install_bytes += report.payload_len as u64;
                                    Ok(())
                                }
                                Err(e) => {
                                    c.hde_rejected += 1;
                                    Err(e.into())
                                }
                            }
                        }),
                    )
                };
                *next_key += 1;
                if mismatch {
                    return Err(format!(
                        "device {} accepted an install whose plaintext differs from the vendor's image",
                        outcome.device_id
                    ));
                }
                c.attempts += u64::from(report.attempts);
                c.retries += u64::from(report.retries);
                phase.wire_bytes += report.wire_bytes;
                {
                    let _s = span("daemon.recycle");
                    clock.wait(|| handle.recycle(frame));
                }
                drop(op_span);
                if report.ok {
                    phase.op_ms.push((clock.now() - wave_start) * 1e3);
                } else {
                    phase.failed += 1;
                    phase.op_ms.push(f64::INFINITY);
                }
            }
            phase.rounds.push(Round {
                ops: phase.op_ms.len() - first,
                seconds: clock.now() - wave_start,
                pace,
            });
        }
        phase.counters.buffers_created = daemon.pool().created() as u64;
        Ok(phase)
    }
}
