//! Cell-list neighbour search for short-range potentials under periodic
//! boundary conditions.
//!
//! The box is divided into cubic cells at least `r_cut` wide; interacting
//! pairs are then found by scanning the 27-cell neighbourhood, making force
//! evaluation O(N) at liquid densities.

use crate::vec3::Vec3;

/// A rebuildable cell list over a cubic periodic box.
#[derive(Debug, Clone)]
pub struct CellList {
    /// Box side length.
    box_len: f64,
    /// Cells per axis (≥ 1).
    n_cells: usize,
    /// Cell side length.
    cell_len: f64,
    /// Head-of-chain particle index per cell, `usize::MAX` = empty.
    heads: Vec<usize>,
    /// Next particle in the same cell, `usize::MAX` = end.
    next: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl CellList {
    /// Creates a cell list for a box of side `box_len` and cutoff `r_cut`.
    pub fn new(box_len: f64, r_cut: f64) -> Self {
        assert!(box_len > 0.0 && r_cut > 0.0);
        let n_cells = ((box_len / r_cut).floor() as usize).max(1);
        let cell_len = box_len / n_cells as f64;
        Self {
            box_len,
            n_cells,
            cell_len,
            heads: vec![NONE; n_cells * n_cells * n_cells],
            next: Vec::new(),
        }
    }

    #[inline]
    fn cell_index(&self, p: Vec3) -> usize {
        let f = |c: f64| -> usize {
            let i = (c.rem_euclid(self.box_len) / self.cell_len) as usize;
            i.min(self.n_cells - 1)
        };
        (f(p.x) * self.n_cells + f(p.y)) * self.n_cells + f(p.z)
    }

    /// Rebuilds the list from current positions.
    pub fn rebuild(&mut self, positions: &[Vec3]) {
        self.heads.iter_mut().for_each(|h| *h = NONE);
        self.next.clear();
        self.next.resize(positions.len(), NONE);
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_index(p);
            self.next[i] = self.heads[c];
            self.heads[c] = i;
        }
    }

    /// Visits every unordered pair within the cutoff neighbourhood.
    ///
    /// `f(i, j, r_ij)` receives `i < j` style unique pairs (by construction
    /// each pair is visited once) and the minimum-image displacement
    /// `r_i − r_j`. Pairs beyond the cutoff may be visited — callers apply
    /// the cutoff test themselves (the list is a broad phase).
    pub fn for_each_pair<F: FnMut(usize, usize, Vec3)>(&self, positions: &[Vec3], mut f: F) {
        let n = self.n_cells as isize;
        // When fewer than 3 cells per axis, neighbour offsets alias; fall
        // back to the all-pairs loop, which is correct at any size.
        if self.n_cells < 3 {
            for i in 0..positions.len() {
                for j in i + 1..positions.len() {
                    let d = (positions[i] - positions[j]).min_image(self.box_len);
                    f(i, j, d);
                }
            }
            return;
        }
        for cx in 0..n {
            for cy in 0..n {
                for cz in 0..n {
                    let c = ((cx * n + cy) * n + cz) as usize;
                    // Half-shell of 13 neighbour offsets + self-cell.
                    self.pairs_within_cell(c, positions, &mut f);
                    for &(dx, dy, dz) in HALF_SHELL {
                        let ox = (cx + dx).rem_euclid(n);
                        let oy = (cy + dy).rem_euclid(n);
                        let oz = (cz + dz).rem_euclid(n);
                        let o = ((ox * n + oy) * n + oz) as usize;
                        self.pairs_between_cells(c, o, positions, &mut f);
                    }
                }
            }
        }
    }

    fn pairs_within_cell<F: FnMut(usize, usize, Vec3)>(
        &self,
        c: usize,
        positions: &[Vec3],
        f: &mut F,
    ) {
        let mut i = self.heads[c];
        while i != NONE {
            let mut j = self.next[i];
            while j != NONE {
                let d = (positions[i] - positions[j]).min_image(self.box_len);
                f(i, j, d);
                j = self.next[j];
            }
            i = self.next[i];
        }
    }

    fn pairs_between_cells<F: FnMut(usize, usize, Vec3)>(
        &self,
        a: usize,
        b: usize,
        positions: &[Vec3],
        f: &mut F,
    ) {
        let mut i = self.heads[a];
        while i != NONE {
            let mut j = self.heads[b];
            while j != NONE {
                let d = (positions[i] - positions[j]).min_image(self.box_len);
                f(i, j, d);
                j = self.next[j];
            }
            i = self.next[i];
        }
    }
}

/// 13 offsets forming a half shell of the 26 neighbours, so each cell pair
/// is enumerated exactly once.
const HALF_SHELL: &[(isize, isize, isize)] = &[
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn brute_pairs(positions: &[Vec3], box_len: f64, r_cut: f64) -> HashSet<(usize, usize)> {
        let mut set = HashSet::new();
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                let d = (positions[i] - positions[j]).min_image(box_len);
                if d.norm_sq() <= r_cut * r_cut {
                    set.insert((i, j));
                }
            }
        }
        set
    }

    fn cell_pairs(positions: &[Vec3], box_len: f64, r_cut: f64) -> HashSet<(usize, usize)> {
        let mut cl = CellList::new(box_len, r_cut);
        cl.rebuild(positions);
        let mut set = HashSet::new();
        cl.for_each_pair(positions, |i, j, d| {
            if d.norm_sq() <= r_cut * r_cut {
                let key = if i < j { (i, j) } else { (j, i) };
                assert!(set.insert(key), "pair {key:?} visited twice");
            }
        });
        set
    }

    fn pseudo_positions(n: usize, box_len: f64, seed: u64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Vec3::new(next(), next(), next()) * box_len).collect()
    }

    #[test]
    fn matches_brute_force_large_box() {
        let box_len = 12.0;
        let pts = pseudo_positions(150, box_len, 99);
        assert_eq!(cell_pairs(&pts, box_len, 2.5), brute_pairs(&pts, box_len, 2.5));
    }

    #[test]
    fn matches_brute_force_small_box_fallback() {
        // Box barely over 2 cutoffs: exercises the all-pairs fallback.
        let box_len = 4.0;
        let pts = pseudo_positions(40, box_len, 7);
        assert_eq!(cell_pairs(&pts, box_len, 2.0), brute_pairs(&pts, box_len, 2.0));
    }

    #[test]
    fn matches_brute_force_exactly_three_cells() {
        let box_len = 7.5;
        let pts = pseudo_positions(80, box_len, 1234);
        assert_eq!(cell_pairs(&pts, box_len, 2.5), brute_pairs(&pts, box_len, 2.5));
    }

    #[test]
    fn periodic_pair_across_boundary_found() {
        let box_len = 10.0;
        let pts = vec![Vec3::new(0.1, 5.0, 5.0), Vec3::new(9.9, 5.0, 5.0)];
        let pairs = cell_pairs(&pts, box_len, 1.0);
        assert!(pairs.contains(&(0, 1)));
    }

    #[test]
    fn empty_and_single_particle() {
        let mut cl = CellList::new(10.0, 2.0);
        cl.rebuild(&[]);
        cl.for_each_pair(&[], |_, _, _| panic!("no pairs expected"));
        let one = [Vec3::new(1.0, 1.0, 1.0)];
        cl.rebuild(&one);
        cl.for_each_pair(&one, |_, _, _| panic!("no pairs expected"));
    }

    #[test]
    fn positions_outside_box_are_wrapped_into_cells() {
        let box_len = 9.0;
        let pts = vec![Vec3::new(-0.5, 10.0, 4.0), Vec3::new(8.6, 0.9, 4.1)];
        let pairs = cell_pairs(&pts, box_len, 1.5);
        assert_eq!(pairs, brute_pairs(&pts, box_len, 1.5));
    }
}
