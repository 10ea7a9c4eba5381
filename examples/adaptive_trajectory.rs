//! Three-axis trajectory compression with adaptive method selection, on a
//! simulated copper crystal (the paper's Copper-B regime).
//!
//! Writes the frames into a store archive, where each axis is its own
//! stream with its own ADP choice, then prints the method each axis's
//! blocks were coded with, read from the block headers (the paper's
//! Table VI observes ADP picking VQ for x/y and MT for z on Copper-B), and
//! per-buffer ratios.
//!
//! ```sh
//! cargo run --release --example adaptive_trajectory
//! ```

use std::collections::BTreeMap;

use mdz::core::{Decompressor, ErrorBound, Frame, MdzConfig};
use mdz::sim::{datasets, DatasetKind, Scale};
use mdz::store::archive::{record_at, split_container};
use mdz::store::{write_store, StoreOptions, StoreReader};

fn main() {
    let dataset = datasets::generate(DatasetKind::CopperB, Scale::Small, 7);
    println!(
        "dataset: {} — {} snapshots × {} atoms",
        dataset.kind.name(),
        dataset.len(),
        dataset.atoms()
    );
    let frames: Vec<Frame> = dataset
        .snapshots
        .iter()
        .map(|s| Frame::new(s.x.clone(), s.y.clone(), s.z.clone()))
        .collect();

    let mut opts = StoreOptions::new(MdzConfig::new(ErrorBound::ValueRangeRelative(1e-3)));
    opts.buffer_size = 10;
    let archive = write_store(&frames, &[], &[], &opts).expect("compress");
    let reader = StoreReader::open(archive.clone()).expect("open");
    let index = reader.index();

    let mut tallies: [BTreeMap<String, usize>; 3] = Default::default();
    for (b, block) in index.blocks.iter().enumerate() {
        let container = record_at(&archive, block.offset).expect("record");
        let axes = split_container(container).expect("container");
        let methods = axes.map(|axis| Decompressor::inspect(axis).expect("header").method);
        for (tally, method) in tallies.iter_mut().zip(methods) {
            *tally.entry(method.to_string()).or_default() += 1;
        }
        if b < 5 || b % 10 == 0 {
            let raw = block.n_frames * index.n_atoms * 24;
            println!(
                "buffer {b:>3}: {raw:>8} → {:>7} bytes ({:.1}x)  x {}  y {}  z {}",
                container.len(),
                raw as f64 / container.len() as f64,
                methods[0],
                methods[1],
                methods[2]
            );
        }
    }

    println!();
    for (name, tally) in ["x", "y", "z"].iter().zip(&tallies) {
        let methods: Vec<String> = tally.iter().map(|(m, c)| format!("{m} ×{c}")).collect();
        println!("axis {name}: {}", methods.join(", "));
    }

    // Read every frame back through the store's random-access reader.
    let restored = reader.read_frames(0..frames.len()).expect("decompress");
    assert_eq!(restored.len(), frames.len());
    let raw = frames.len() * index.n_atoms * 24;
    println!(
        "\noverall ratio: {:.1}x ({} → {} bytes)",
        raw as f64 / archive.len() as f64,
        raw,
        archive.len()
    );
}
