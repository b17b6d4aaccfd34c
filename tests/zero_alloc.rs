//! Steady-state allocation audit for the zero-copy provisioning path.
//!
//! The clone-per-device pipeline performs two payload-sized
//! allocations per package (the `Package`'s cloned payload, then its
//! serialized wire `Vec`); at fleet scale that allocator traffic — not
//! crypto — bounds throughput. The zero-copy path
//! (`package_prepared_into` over reused buffers, and the daemon's
//! recycling pool) must perform **zero** payload-sized allocations
//! once warm.
//!
//! A counting `#[global_allocator]` wraps `System` and, while armed,
//! counts every allocation/reallocation at or above half the payload
//! size. Warm-up runs unarmed (buffers legitimately grow once); the
//! armed steady-state waves must count zero. The same allocator pins
//! delta OTA apply to O(changed): patching one segment of a large
//! installed image allocates nothing image-sized, and only a few
//! segments' worth of bytes in total. The counters are process-global,
//! so each `#[test]` holds one lock for its whole run.

use eric::core::{Device, EncryptionConfig, ProvisioningDaemon, SoftwareSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested while armed, and the largest single request.
static TOTAL_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

/// Serializes the tests: only one may arm the shared counters.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DATA_BYTES: usize = 64 << 10;
const DEVICES: usize = 8;

fn armed<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BIG_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, BIG_ALLOCS.load(Ordering::Relaxed))
}

#[test]
fn steady_state_packaging_performs_no_payload_sized_allocations() {
    let _lock = exclusive();
    let asm =
        format!(".data\nblob: .zero {DATA_BYTES}\n.text\nmain:\n li a0, 0\n li a7, 93\n ecall\n");
    let creds: Vec<_> = (0..DEVICES)
        .map(|i| Device::with_seed(5_000 + i as u64, &format!("unit-{i}")).enroll())
        .collect();
    let config = EncryptionConfig::full();

    // --- Phase 1: direct zero-copy packaging over reused buffers ---
    let source = SoftwareSource::new("vendor");
    let image = source.compile(&asm, config.compress).unwrap();
    let prepared = source.prepare_image(&image, &config).unwrap();
    THRESHOLD.store(prepared.payload_len() / 2, Ordering::Relaxed);

    let mut frames: Vec<Vec<u8>> = (0..DEVICES).map(|_| Vec::new()).collect();
    // Warm-up: buffers grow to frame size exactly once, unarmed.
    for (frame, cred) in frames.iter_mut().zip(&creds) {
        source
            .package_prepared_into(&prepared, cred, frame)
            .unwrap();
    }
    let ((), big) = armed(|| {
        for _ in 0..3 {
            for (frame, cred) in frames.iter_mut().zip(&creds) {
                source
                    .package_prepared_into(&prepared, cred, frame)
                    .unwrap();
            }
        }
    });
    assert_eq!(
        big, 0,
        "direct zero-copy path made {big} payload-sized allocations across \
         3 warm waves of {DEVICES} devices"
    );

    // Sanity: the clone-per-device oracle *does* allocate (the counter
    // actually measures what it claims to).
    let ((), big) = armed(|| {
        for cred in &creds {
            let (package, _) = source.package_prepared(&prepared, cred).unwrap();
            std::hint::black_box(package.to_wire());
        }
    });
    assert!(
        big >= 2 * DEVICES,
        "clone-per-device baseline should allocate ≥2 payload-sized blocks \
         per device, counted {big}"
    );

    // --- Phase 2: the daemon's recycling pool, end to end ---
    let workers = 2;
    let daemon = ProvisioningDaemon::start(SoftwareSource::new("vendor"), workers);
    let image = daemon.source().compile(&asm, config.compress).unwrap();
    // Warm-up wave: populates the cache and measures the frame size.
    let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
    let mut frame_len = 0;
    for outcome in handle.iter() {
        let frame = outcome.result.unwrap();
        frame_len = frame.bytes.len();
        handle.recycle(frame);
    }
    // Prime the pool to its in-flight cap (workers packaging + bounded
    // channel + consumer) at full capacity, so no armed-wave schedule
    // can force a fresh buffer into existence.
    let primers: Vec<Vec<u8>> = (0..2 * workers + 2)
        .map(|_| {
            let mut buf = daemon.pool().take();
            buf.reserve(frame_len);
            buf
        })
        .collect();
    for buf in primers {
        daemon.pool().recycle(buf);
    }
    let (delivered, big) = armed(|| {
        let mut delivered = 0usize;
        for _ in 0..3 {
            let handle = daemon.submit(&image, &config, creds.clone()).unwrap();
            for outcome in handle.iter() {
                handle.recycle(outcome.result.unwrap());
                delivered += 1;
            }
        }
        delivered
    });
    assert_eq!(delivered, 3 * DEVICES);
    assert_eq!(
        big, 0,
        "warm daemon made {big} payload-sized allocations across 3 waves of \
         {DEVICES} devices"
    );
    daemon.shutdown();
}

/// Applying a one-segment delta to a 1 MiB image in 4 KiB segments
/// shares the 255 kept segments instead of copying them: no single
/// allocation comes near the image size, and all of them together stay
/// within a small multiple of one segment plus the digest table.
#[test]
fn one_segment_delta_apply_allocates_o_changed() {
    let _lock = exclusive();
    const IMAGE: usize = 1 << 20;
    const SEGMENT_LEN: usize = 4096;
    let program = |word: u32| {
        format!(
            ".data\nmark: .word {word}\nblob: .zero {}\n.text\nmain:\n li a0, 0\n li a7, 93\n ecall\n",
            IMAGE - 4
        )
    };
    let mut device = Device::with_seed(5_100, "ota-unit");
    let cred = device.enroll();
    let source = SoftwareSource::new("vendor");
    let config = EncryptionConfig::full().with_segments(SEGMENT_LEN as u32);
    let prepare = |word| {
        let image = source.compile(&program(word), false).unwrap();
        source.prepare_image(&image, &config).unwrap()
    };
    let (base, next) = (prepare(1), prepare(2));
    let installed = device
        .install(&source.package_prepared(&base, &cred).unwrap().0)
        .unwrap();
    let delta = source.prepare_delta(&base, &next).unwrap();
    assert_eq!(delta.changed_segments(), 1);
    let frame = source.package_delta(&delta, &cred).unwrap();
    let segments = installed.segments();
    assert!(installed.payload_len() >= IMAGE && segments > 256);
    THRESHOLD.store(installed.payload_len() / 2, Ordering::Relaxed);

    let (patched, big) = armed(|| device.apply_delta(&installed, &frame).unwrap());
    let (total, largest) = (
        TOTAL_BYTES.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    patched.scrub().unwrap();
    assert_eq!(patched.fingerprint(), {
        let clean = device.install(&source.package_prepared(&next, &cred).unwrap().0);
        clean.unwrap().fingerprint()
    });
    assert_eq!(big, 0, "apply made {big} image-sized allocations");
    assert!(
        largest < patched.payload_len(),
        "largest allocation {largest} B reaches the {} B image",
        patched.payload_len()
    );
    let budget = 4 * (SEGMENT_LEN + 32 * segments);
    assert!(
        total <= budget,
        "apply allocated {total} B in all, over 4 × (segment + 32 B per \
         segment) = {budget} B"
    );
}
