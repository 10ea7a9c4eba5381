//! Molecular-dynamics substrate and dataset generators for the MDZ
//! reproduction.
//!
//! The paper evaluates on eight real MD datasets (Table I) produced by
//! LAMMPS/EXAALT/CHARMM runs on LANL and ANL machines, plus two HACC
//! cosmology datasets. Those traces are not redistributable, so this crate
//! rebuilds the *generating processes* at laptop scale:
//!
//! * [`engine`] — a real (small) MD engine: Lennard-Jones potential,
//!   velocity-Verlet integration, cell-list neighbour search, periodic
//!   boundaries, and a Langevin thermostat. Used for the LJ dataset and the
//!   paper's Table VII inline-compression experiment.
//! * [`lattice`] — FCC/BCC crystal builders.
//! * [`crystal`] — Einstein-crystal / Ornstein–Uhlenbeck models of thermal
//!   vibration about lattice sites, which reproduce the paper's key spatial
//!   observation (coordinates clustering at equally spaced discrete levels,
//!   Fig. 3/4) and its two temporal regimes (Fig. 5) without hour-long
//!   simulations.
//! * [`datasets`] — one generator per paper dataset (Copper-A/B,
//!   Helium-A/B, ADK, IFABP, Pt, LJ, HACC-1/2), each tuned to the
//!   spatial/temporal characteristics §V attributes to it.
//!
//! Determinism: every generator takes a seed and produces identical output
//! across runs, so experiments are reproducible.

#![forbid(unsafe_code)]

pub mod cells;
pub mod crystal;
pub mod datasets;
pub mod engine;
pub mod lattice;
pub mod rng;
pub mod vec3;

pub use datasets::{Dataset, DatasetKind, Scale};
pub use engine::{LjSimulation, SimConfig};
pub use vec3::Vec3;

/// One snapshot of particle positions, axis-separated (the layout every
/// compressor in this workspace consumes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Per-particle x coordinates.
    pub x: Vec<f64>,
    /// Per-particle y coordinates.
    pub y: Vec<f64>,
    /// Per-particle z coordinates.
    pub z: Vec<f64>,
}

impl Snapshot {
    /// Builds a snapshot from a point list.
    pub fn from_points(points: &[Vec3]) -> Self {
        let mut s = Snapshot {
            x: Vec::with_capacity(points.len()),
            y: Vec::with_capacity(points.len()),
            z: Vec::with_capacity(points.len()),
        };
        for p in points {
            s.x.push(p.x);
            s.y.push(p.y);
            s.z.push(p.z);
        }
        s
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Borrow an axis by index (0 = x, 1 = y, 2 = z).
    pub fn axis(&self, a: usize) -> &[f64] {
        match a {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_from_points() {
        let pts = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        let s = Snapshot::from_points(&pts);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x, vec![1.0, 4.0]);
        assert_eq!(s.axis(2), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "axis out of range")]
    fn bad_axis_panics() {
        Snapshot::default().axis(3);
    }
}
