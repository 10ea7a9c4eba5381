//! Quantization-sequence interleaving (the paper's Seq-1 / Seq-2, §VI-C2).
//!
//! Before entropy coding, the per-snapshot quantization codes of a buffer
//! form an `M × N` matrix (M snapshots, N particles). Seq-1 stores it
//! row-major (snapshot by snapshot); Seq-2 stores it column-major (each
//! particle's codes across all snapshots contiguously). When data is stable
//! in time, Seq-2 lines up long runs of identical codes, which the
//! dictionary stage compresses far better — the paper measures ~38 % higher
//! compression ratio on Helium-B.

/// Transposes a row-major `rows × cols` matrix into column-major order,
/// writing into a caller-owned vector (cleared first).
///
/// Copies the input unchanged when either dimension is ≤ 1.
pub fn to_seq2_into(codes: &[u32], rows: usize, cols: usize, out: &mut Vec<u32>) {
    assert_eq!(codes.len(), rows * cols, "shape mismatch");
    out.clear();
    if rows <= 1 || cols <= 1 {
        out.extend_from_slice(codes);
        return;
    }
    out.reserve(codes.len());
    for c in 0..cols {
        for r in 0..rows {
            out.push(codes[r * cols + c]);
        }
    }
}

/// Inverse of [`to_seq2_into`]: column-major back to row-major, writing
/// into a caller-owned vector (cleared first).
pub fn from_seq2_into(codes: &[u32], rows: usize, cols: usize, out: &mut Vec<u32>) {
    assert_eq!(codes.len(), rows * cols, "shape mismatch");
    out.clear();
    if rows <= 1 || cols <= 1 {
        out.extend_from_slice(codes);
        return;
    }
    out.resize(codes.len(), 0);
    let mut idx = 0;
    for c in 0..cols {
        for r in 0..rows {
            out[r * cols + c] = codes[idx];
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_seq2(codes: &[u32], rows: usize, cols: usize) -> Vec<u32> {
        let mut out = Vec::new();
        to_seq2_into(codes, rows, cols, &mut out);
        out
    }

    #[test]
    fn transpose_round_trip() {
        let codes: Vec<u32> = (0..24).collect();
        let mut back = vec![7; 3];
        for (rows, cols) in [(4, 6), (6, 4), (1, 24), (24, 1), (2, 12)] {
            let t = to_seq2(&codes, rows, cols);
            from_seq2_into(&t, rows, cols, &mut back);
            assert_eq!(back, codes, "{rows}x{cols}");
        }
    }

    #[test]
    fn seq2_groups_particles() {
        // 2 snapshots × 3 particles; Seq-2 = particle-major.
        let codes = vec![10, 11, 12, 20, 21, 22];
        assert_eq!(to_seq2(&codes, 2, 3), vec![10, 20, 11, 21, 12, 22]);
    }

    #[test]
    fn stable_time_series_forms_runs() {
        // Each particle keeps its code across snapshots → Seq-2 yields runs.
        let (rows, cols) = (5, 4);
        let codes: Vec<u32> = (0..rows).flat_map(|_| (0..cols as u32).map(|p| 100 + p)).collect();
        let t = to_seq2(&codes, rows, cols);
        for chunk in t.chunks(rows) {
            assert!(chunk.iter().all(|&c| c == chunk[0]));
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        assert!(to_seq2(&[], 0, 0).is_empty());
        assert_eq!(to_seq2(&[5], 1, 1), vec![5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        to_seq2(&[1, 2, 3], 2, 2);
    }
}
