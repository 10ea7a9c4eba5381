//! One function per paper artifact (tables I–VII, figures 3–16).
//!
//! Every experiment returns [`Table`]s; the `experiments` binary renders
//! them to stdout and writes CSV files under `results/`. Dataset generation
//! is cached per run so multi-figure invocations don't regenerate.

mod ablations;
mod characterization;
mod comparison;
mod core_exps;
mod lammps;
mod quantizer;

pub use ablations::ablations;
pub use characterization::{fig3, fig4, fig5, fig8, table1, table2};
pub use comparison::{fig12, fig12var, fig13, fig14, fig15, fig16, table4, table5, table6};
pub use core_exps::{fig10, fig11, fig9, table3};
pub use lammps::table7;
pub use quantizer::quantizer;

use crate::table::Table;
use mdz_sim::{datasets, Dataset, DatasetKind, Scale};
use std::collections::HashMap;
use std::path::PathBuf;

/// Shared experiment context: scale, output directory, dataset cache.
pub struct Ctx {
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub seed: u64,
    cache: HashMap<DatasetKind, Dataset>,
}

impl Ctx {
    /// Creates a context writing CSVs under `out_dir`.
    pub fn new(scale: Scale, out_dir: PathBuf, seed: u64) -> Self {
        Self { scale, out_dir, seed, cache: HashMap::new() }
    }

    /// Returns the (cached) dataset of `kind` at the context scale.
    pub fn dataset(&mut self, kind: DatasetKind) -> &Dataset {
        let scale = self.scale;
        let seed = self.seed;
        self.cache.entry(kind).or_insert_with(|| datasets::generate(kind, scale, seed))
    }

    /// Writes a table's CSV under the output directory (file name derived
    /// from the experiment id) and returns the table unchanged.
    pub fn emit(&self, id: &str, table: Table) -> Table {
        let path = self.out_dir.join(format!("{id}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        table
    }
}

/// Every experiment id, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "table2",
    "fig9",
    "table3",
    "fig10",
    "fig11",
    "fig12",
    "fig12var",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table4",
    "table5",
    "table6",
    "table7",
    "ablations",
    "quantizer",
];

/// Runs one experiment by id.
pub fn run(id: &str, ctx: &mut Ctx) -> Option<Vec<Table>> {
    let tables = match id {
        "table1" => table1(ctx),
        "fig3" => fig3(ctx),
        "fig4" => fig4(ctx),
        "fig5" => fig5(ctx),
        "fig8" => fig8(ctx),
        "table2" => table2(ctx),
        "fig9" => fig9(ctx),
        "table3" => table3(ctx),
        "fig10" => fig10(ctx),
        "fig11" => fig11(ctx),
        "fig12" => fig12(ctx),
        "fig12var" => fig12var(ctx),
        "fig13" => fig13(ctx),
        "fig14" => fig14(ctx),
        "fig15" => fig15(ctx),
        "fig16" => fig16(ctx),
        "table4" => table4(ctx),
        "table5" => table5(ctx),
        "table6" => table6(ctx),
        "table7" => table7(ctx),
        "ablations" => ablations(ctx),
        "quantizer" => quantizer(ctx),
        _ => return None,
    };
    Some(tables)
}
