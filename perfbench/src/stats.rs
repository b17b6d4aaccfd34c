//! Small numeric helpers: seeded input generation, percentiles, RSS.

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `(seed, stream)`; distinct streams never share
    /// draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`, sorting in
/// place; `NaN` when empty. Infinite entries (failed ops) rank last.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock` is one of the two CPU-time clocks Linux always
    // provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time the calling thread has run, seconds. Unlike wall time it
/// does not advance while the hypervisor runs another guest on this
/// vCPU (steal), the largest source of run-to-run noise on a shared
/// host.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have run, seconds. Work the
/// measured code hands to a thread of its own still counts.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// The client thread's clock with steal left out: its own CPU time,
/// plus the time it spends blocked in calls that wait on the daemon's
/// workers.
///
/// A thread's CPU time stops both while the hypervisor runs another guest
/// on its vCPU and while the thread waits. [`ClientClock::wait`] adds the
/// waiting back: the wall time the client spends off the CPU in the call,
/// but no more than the CPU time the workers spend meanwhile (per
/// worker), so the work the client waits for counts and steal on the
/// workers' vCPUs does not. A wait on anything other than the workers'
/// CPU work would read as free; the daemon has none.
#[derive(Debug)]
pub struct ClientClock {
    workers: f64,
    waited: f64,
}

impl ClientClock {
    /// A clock for a client served by `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        ClientClock {
            workers: workers.max(1) as f64,
            waited: 0.0,
        }
    }

    /// Seconds on this clock; only differences mean anything.
    pub fn now(&self) -> f64 {
        thread_cpu_s() + self.waited
    }

    /// Run `f`, a call that may block on the workers, and count the time
    /// it spends waiting for them.
    pub fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (wall, own, all) = (std::time::Instant::now(), thread_cpu_s(), process_cpu_s());
        let out = f();
        let own = thread_cpu_s() - own;
        let off_cpu = wall.elapsed().as_secs_f64() - own;
        let workers = (process_cpu_s() - all - own) / self.workers;
        self.waited += off_cpu.min(workers).max(0.0);
        out
    }
}

/// Time of the pace probe at the reference pace, seconds: about its
/// median on the host the benchmark was defined on.
const PROBE_REFERENCE_S: f64 = 1.0e-3;

/// Blocks the pace probe compresses.
const PROBE_BLOCKS: u32 = 2048;

/// The host's pace now: the CPU time of a fixed probe on this thread
/// over its time at the reference pace, so 1.25 means this thread runs
/// code 25% slower than the reference.
///
/// On a shared host the CPU time of the same code drifts by more than
/// half over minutes, with no steal to show for it (a busy sibling
/// hyperthread, a lower clock). The probe is the benchmark's own code,
/// the SHA-256 compression over seeded words, so no change to the
/// measured program moves it; dividing a round's times by the pace taken
/// just before it gives the times at the reference pace.
pub fn host_pace() -> f64 {
    const K: [u32; 64] = {
        let mut k = [0u32; 64];
        let mut x: u32 = 0x428a_2f98;
        let mut i = 0;
        while i < 64 {
            x = x.wrapping_mul(0x9E37_79B1).rotate_left(7) ^ i as u32;
            k[i] = x;
            i += 1;
        }
        k
    };
    let t = thread_cpu_s();
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let mut w = [0u32; 64];
    for block in 0..std::hint::black_box(PROBE_BLOCKS) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = block.wrapping_mul(i as u32 + 1) ^ h[i & 7];
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    std::hint::black_box(h);
    (thread_cpu_s() - t) / PROBE_REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_rank_failures_last() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        v[3] = f64::INFINITY;
        assert_eq!(percentile(&mut v, 1.0), f64::INFINITY);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn the_client_clock_counts_the_work_it_waits_for() {
        let mut clock = ClientClock::new(1);
        let before = clock.now();
        let worker = clock.wait(|| {
            std::thread::spawn(|| {
                let start = thread_cpu_s();
                while thread_cpu_s() - start < 0.02 {}
                thread_cpu_s() - start
            })
            .join()
            .unwrap()
        });
        let waited = clock.now() - before;
        assert!(waited >= 0.9 * worker, "{waited} < {worker}");
    }

    #[test]
    fn host_pace_is_positive_and_finite() {
        let pace = host_pace();
        assert!(pace > 0.0 && pace.is_finite(), "{pace}");
    }

    #[test]
    fn splitmix_streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(1, 2).next_u64(),
            SplitMix::new(1, 3).next_u64()
        );
        assert_ne!(
            SplitMix::new(1, 2).next_u64(),
            SplitMix::new(2, 2).next_u64()
        );
    }
}
