//! OTA updates: delta frames vs full-image pushes, and the streaming
//! install's memory bound.
//!
//! For each image size, one data word in the middle changes (one
//! segment of the manifest), and the bench compares the `ERIC2D`
//! delta frame against a full `ERIC2` push of the new version:
//! bytes-on-wire, the ratio against the ideal "pay only for what
//! changed" budget, and the peak payload working set of the streaming
//! loader vs the buffered baseline.
//!
//! Knobs: `ERIC_BENCH_SMOKE=1` shrinks the image sweep and skips the
//! floor assertions.
//!
//! Floors (release, non-smoke):
//! * the ~1%-changed image's delta wire bytes are ≤ 1.2× the
//!   changed-fraction share of the full frame
//!   (`delta ≤ 1.2 × (changed/total) × full`);
//! * the streaming peak working set is one segment — identical across
//!   image sizes while the buffered baseline grows linearly;
//! * applying the one-changed-segment delta costs O(changed), not
//!   O(image): the 512 KiB row's median `apply_ms` is ≤ 2× the 64 KiB
//!   row's, though the image is 8× larger.

use eric_bench::ota_updates;
use eric_bench::output::{banner, smoke_mode, write_bench_json, write_json};

const SEGMENT_LEN: u32 = 4096;
/// Image sizes, KiB. The 512 KiB image spans ~128 segments, so its
/// single changed segment is the ~1%-changed acceptance case.
const SIZES_KIB: &[usize] = &[64, 128, 512];
const SMOKE_SIZES_KIB: &[usize] = &[16, 64];

fn main() {
    let sizes = if smoke_mode() {
        SMOKE_SIZES_KIB
    } else {
        SIZES_KIB
    };
    banner(&format!(
        "OTA updates: delta wire economics and streaming working set \
         (segment {} KiB)",
        SEGMENT_LEN >> 10
    ));
    let report = ota_updates(sizes, SEGMENT_LEN);
    println!(
        "{:>9} {:>6} {:>8} {:>10} {:>10} {:>7} {:>7} {:>10} {:>9} {:>8} {:>8}",
        "image",
        "segs",
        "changed",
        "full B",
        "delta B",
        "ratio",
        "budget",
        "buf peak",
        "strm peak",
        "pkg ms",
        "apply ms"
    );
    for row in &report.rows {
        println!(
            "{:>7} K {:>6} {:>8} {:>10} {:>10} {:>6.3} {:>6.2}x {:>10} {:>9} {:>8.3} {:>8.3}",
            row.payload_bytes >> 10,
            row.total_segments,
            row.changed_segments,
            row.full_wire_bytes,
            row.delta_wire_bytes,
            row.wire_ratio,
            row.budget_ratio,
            row.buffered_peak_bytes,
            row.streaming_peak_bytes,
            row.package_delta_ms,
            row.apply_ms
        );
    }

    if smoke_mode() {
        println!("\nsmoke mode: floor assertions skipped");
    } else {
        // The ~1%-changed image: one changed segment out of ≥ 100.
        let sparse = report
            .rows
            .iter()
            .rfind(|r| r.total_segments >= 100)
            .expect("sweep includes a ≥100-segment image");
        assert!(
            sparse.budget_ratio <= 1.2,
            "1%-changed delta costs {:.3}x the changed-fraction budget \
             ({} B vs {} B full)",
            sparse.budget_ratio,
            sparse.delta_wire_bytes,
            sparse.full_wire_bytes
        );
        // O(segment_len) streaming peak, flat across image sizes.
        for row in &report.rows {
            assert!(
                row.streaming_peak_bytes <= SEGMENT_LEN as usize,
                "streaming peak {} exceeds one segment",
                row.streaming_peak_bytes
            );
            assert_eq!(
                row.streaming_peak_bytes, report.rows[0].streaming_peak_bytes,
                "streaming peak varied with image size"
            );
        }
        assert!(
            report
                .rows
                .windows(2)
                .all(|w| w[0].buffered_peak_bytes < w[1].buffered_peak_bytes),
            "buffered baseline should grow with the image"
        );
        // Copy-on-write apply: the cost follows the one changed
        // segment, not the image size.
        let apply_ms = |kib: usize| {
            report
                .rows
                .iter()
                .find(|r| r.payload_bytes >> 10 == kib)
                .unwrap_or_else(|| panic!("sweep includes a {kib} KiB image"))
                .apply_ms
        };
        let (small, large) = (apply_ms(64), apply_ms(512));
        assert!(
            large <= 2.0 * small,
            "one-segment apply is O(image): {large:.3} ms at 512 KiB vs \
             {small:.3} ms at 64 KiB (floor: ≤ 2x)"
        );
        println!(
            "\nOTA floors OK: delta ≤ 1.2x changed-fraction budget, \
             streaming peak flat at {} B, apply {large:.3} ms at 512 KiB \
             vs {small:.3} ms at 64 KiB",
            report.rows[0].streaming_peak_bytes
        );
    }

    write_json("ota_updates", &report);
    write_bench_json("ota_updates");
}
