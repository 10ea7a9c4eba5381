//! CLI regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--scale test|small|full] [--out DIR] [--seed N] <id>... | all | list
//! ```
//!
//! Each experiment prints an aligned text table and writes CSV under the
//! output directory (default `results/`).

#![forbid(unsafe_code)]

use mdz_bench::experiments::{self, Ctx, ALL};
use mdz_sim::Scale;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut scale = Scale::Small;
    let mut out_dir = PathBuf::from("results");
    let mut seed = 20220707u64;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = match v.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    _ => {
                        eprintln!("unknown scale '{v}' (expected test|small|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out_dir = PathBuf::from(args.next().unwrap_or_default()),
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                })
            }
            "list" => {
                for id in ALL {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale test|small|full] [--out DIR] [--seed N] \
                     <id>... | all | list"
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no experiments requested; try 'all' or 'list'");
        std::process::exit(2);
    }

    let mut ctx = Ctx::new(scale, out_dir, seed);
    for id in &ids {
        let t0 = Instant::now();
        match experiments::run(id, &mut ctx) {
            Some(tables) => {
                for table in tables {
                    println!("{}", table.render());
                }
                eprintln!("[{id}] done in {:.1}s", t0.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment '{id}'; 'list' shows the ids");
                std::process::exit(2);
            }
        }
    }
}
