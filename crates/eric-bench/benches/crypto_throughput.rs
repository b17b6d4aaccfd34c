//! Crypto-primitive microbenchmark (cipher-choice ablation: the
//! paper's pluggable encryption function), comparing the block
//! keystream path against the per-byte reference the decrypt hot loop
//! used before the run-based redesign, the multi-buffer SHA-CTR fill
//! against the single-block scalar compress it replaced and against
//! its single-chain ceiling, and batched leaf hashing.

use eric_bench::output::{banner, check_floor, write_bench_json, write_json};
use eric_bench::{crypto_throughput, CipherRow};

fn main() {
    banner("Crypto throughput: block keystream path vs per-byte oracle (1 MiB)");
    let report = crypto_throughput();
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "cipher", "block (MiB/s)", "per-byte (MiB/s)", "speedup"
    );
    for r in &report.rows {
        println!(
            "{:<10} {:>16.1} {:>16.1} {:>9.1}x",
            r.cipher, r.block_mib_s, r.bytewise_mib_s, r.speedup
        );
    }
    println!("{:<10} {:>16.1}", "sha-256", report.sha256_mib_s);
    println!("\nper-byte = one virtual keystream_byte call per payload byte (the");
    println!("pre-refactor decrypt shape); block = fill_keystream + slice XOR.");

    println!("\nsha-ctr fill, hash engine = {}:", report.hash_engine);
    println!(
        "{:<26} {:>16}",
        "multi-buffer fill (MiB/s)", "scalar fill (MiB/s)"
    );
    println!(
        "{:<26.1} {:>16.1}   ({:.1}x)",
        report.shactr_fill_mib_s, report.shactr_scalar_fill_mib_s, report.shactr_fill_speedup
    );
    println!("scalar = one software Sha256 chain per 32-byte counter block (the");
    println!("shape fill_keystream had before any hash-engine work).");

    println!(
        "\nsingle-stream compress (one 1 MiB Sha256 chain), active engine = {}:",
        report.compress_engine
    );
    match (
        report.singlestream_shani_mib_s,
        report.singlestream_shani_speedup,
    ) {
        (Some(shani), Some(speedup)) => {
            println!(
                "{:<26} {:>16}",
                "sha-ni chain (MiB/s)", "scalar chain (MiB/s)"
            );
            println!(
                "{:<26.1} {:>16.1}   ({:.1}x)",
                shani, report.singlestream_scalar_mib_s, speedup
            );
        }
        _ => println!(
            "no SHA-NI on this host; scalar chain {:.1} MiB/s",
            report.singlestream_scalar_mib_s
        ),
    }
    println!("this is the tier the v1 signature chain, the streaming hasher, and");
    println!("the Merkle fold ride — sequential work no multi-buffer width reaches.");

    println!(
        "\nsha-ctr fill vs its single-chain ceiling (sha-ni chain / 2): {}",
        report
            .shactr_fill_vs_chain_ceiling
            .map_or("n/a (no SHA-NI)".to_string(), |r| format!("{r:.2}x"))
    );
    println!(
        "leaf_digests_batch, 1 MiB in 4 KiB segments: {:.1} MiB/s",
        report.leaf_batch_mib_s
    );
    println!();

    let xor: &CipherRow = report
        .rows
        .iter()
        .find(|r| r.cipher == "xor")
        .expect("xor row present");
    check_floor(
        "xor-block-vs-bytewise",
        Some(xor.speedup),
        5.0,
        None,
        "the XOR block path must beat the per-byte reference on a 1 MiB payload",
    );
    check_floor(
        "sha-ctr-fill-vs-scalar-fill",
        Some(report.shactr_fill_speedup),
        2.0,
        None,
        "the multi-buffer fill must beat the single-block scalar compress path \
         on a 1 MiB keystream",
    );
    check_floor(
        "sha-ni-chain-vs-scalar-chain",
        report.singlestream_shani_speedup,
        1.5,
        report
            .singlestream_shani_speedup
            .is_none()
            .then_some("no SHA-NI on this host"),
        "the SHA-NI single-stream compress must beat the scalar compress on a 1 MiB chain",
    );
    let ceiling_skip = if report.shactr_fill_vs_chain_ceiling.is_none() {
        Some("no SHA-NI on this host")
    } else if report.hash_engine != "sha-ni" {
        Some("the fill does not run on the sha-ni engine")
    } else {
        None
    };
    check_floor(
        "sha-ctr-fill-vs-chain-ceiling",
        report.shactr_fill_vs_chain_ceiling,
        1.0,
        ceiling_skip,
        "the interleaved sha-ni fill must reach the single-chain ceiling",
    );

    write_json("crypto_throughput", &report);
    write_bench_json("crypto_throughput");
}
