//! Minimal XYZ trajectory file support.
//!
//! The XYZ format is the lingua franca of MD visualization: each frame is a
//! particle count line, a comment line, then `element x y z` rows. This
//! module parses and writes multi-frame XYZ files for the `mdz` CLI.

use mdz_core::Frame;
use std::fmt::Write as _;

/// A parsed XYZ trajectory: per-atom element symbols plus position frames.
#[derive(Debug, Clone, PartialEq)]
pub struct XyzTrajectory {
    /// Element symbol per atom (identical across frames).
    pub elements: Vec<String>,
    /// Per-frame comment lines (second line of each frame).
    pub comments: Vec<String>,
    /// Position frames.
    pub frames: Vec<Frame>,
}

/// Errors from XYZ parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XyzError {
    /// A frame header count line was malformed.
    BadCount(usize),
    /// A coordinate row was malformed.
    BadRow(usize),
    /// The file ended in the middle of a frame.
    Truncated,
    /// A later frame's atom list does not match the first frame's.
    InconsistentAtoms(usize),
}

impl std::fmt::Display for XyzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XyzError::BadCount(l) => write!(f, "line {l}: expected an atom count"),
            XyzError::BadRow(l) => write!(f, "line {l}: expected 'element x y z'"),
            XyzError::Truncated => write!(f, "file ends mid-frame"),
            XyzError::InconsistentAtoms(fr) => {
                write!(f, "frame {fr}: atom list differs from frame 0")
            }
        }
    }
}

impl std::error::Error for XyzError {}

/// Fewest bytes one atom row takes: `e x y z` and its line break.
const MIN_ROW_BYTES: usize = 8;

/// Parses a (possibly multi-frame) XYZ document.
pub fn parse(text: &str) -> Result<XyzTrajectory, XyzError> {
    let mut lines = text.lines().enumerate().peekable();
    let mut elements: Vec<String> = Vec::new();
    let mut comments = Vec::new();
    let mut frames = Vec::new();
    while let Some(&(lineno, line)) = lines.peek() {
        if line.trim().is_empty() {
            lines.next();
            continue;
        }
        let n: usize = line.trim().parse().map_err(|_| XyzError::BadCount(lineno + 1))?;
        lines.next();
        let comment = lines.next().ok_or(XyzError::Truncated)?.1.to_string();
        // Reserve no more rows than the text can hold, so a forged count
        // ends in `Truncated` instead of an allocation failure.
        let rows = n.min(text.len() / MIN_ROW_BYTES);
        let first = frames.is_empty();
        if first {
            elements.reserve(rows);
        }
        // A later frame's names are compared with frame 0's in place; a
        // mismatch is reported only once the frame's own rows have parsed.
        let mut same_atoms = first || n == elements.len();
        let mut frame = Frame {
            x: Vec::with_capacity(rows),
            y: Vec::with_capacity(rows),
            z: Vec::with_capacity(rows),
        };
        for i in 0..n {
            let (rowno, row) = lines.next().ok_or(XyzError::Truncated)?;
            let mut parts = row.split_whitespace();
            let el = parts.next().ok_or(XyzError::BadRow(rowno + 1))?;
            let coord = |p: Option<&str>| -> Result<f64, XyzError> {
                p.ok_or(XyzError::BadRow(rowno + 1))?
                    .parse()
                    .map_err(|_| XyzError::BadRow(rowno + 1))
            };
            frame.x.push(coord(parts.next())?);
            frame.y.push(coord(parts.next())?);
            frame.z.push(coord(parts.next())?);
            if first {
                elements.push(el.to_string());
            } else {
                same_atoms &= elements.get(i).is_some_and(|name| name == el);
            }
        }
        if !same_atoms {
            return Err(XyzError::InconsistentAtoms(frames.len()));
        }
        comments.push(comment);
        frames.push(frame);
    }
    Ok(XyzTrajectory { elements, comments, frames })
}

/// Writes a trajectory as XYZ text.
pub fn write(traj: &XyzTrajectory) -> String {
    let mut out = String::new();
    for (f_idx, frame) in traj.frames.iter().enumerate() {
        let _ = writeln!(out, "{}", frame.len());
        let comment = traj.comments.get(f_idx).map(String::as_str).unwrap_or("");
        let _ = writeln!(out, "{comment}");
        for i in 0..frame.len() {
            let el = traj.elements.get(i).map(String::as_str).unwrap_or("X");
            let _ = writeln!(out, "{el} {:.10} {:.10} {:.10}", frame.x[i], frame.y[i], frame.z[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
3
frame 0
Cu 0.0 0.0 0.0
Cu 1.8075 1.8075 0.0
O  0.5 -0.25 3.25
3
frame 1
Cu 0.01 0.0 0.0
Cu 1.8174 1.8075 0.0
O  0.5 -0.24 3.26
";

    #[test]
    fn parses_multi_frame() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(t.frames.len(), 2);
        assert_eq!(t.elements, vec!["Cu", "Cu", "O"]);
        assert_eq!(t.comments[1], "frame 1");
        assert_eq!(t.frames[1].x[1], 1.8174);
        assert_eq!(t.frames[0].z[2], 3.25);
    }

    #[test]
    fn round_trips_through_writer() {
        let t = parse(SAMPLE).unwrap();
        let text = write(&t);
        let t2 = parse(&text).unwrap();
        assert_eq!(t2.elements, t.elements);
        assert_eq!(t2.frames.len(), t.frames.len());
        for (a, b) in t.frames.iter().zip(t2.frames.iter()) {
            for i in 0..a.len() {
                assert!((a.x[i] - b.x[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn skips_blank_lines_between_frames() {
        let text = format!("{}\n\n{}", "1\nc\nH 1 2 3", "1\nc\nH 4 5 6");
        let t = parse(&text).unwrap();
        assert_eq!(t.frames.len(), 2);
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse("x\n"), Err(XyzError::BadCount(1)));
        assert_eq!(parse("2\nc\nH 1 2 3\n"), Err(XyzError::Truncated));
        assert_eq!(parse("1\nc\nH 1 2\n"), Err(XyzError::BadRow(3)));
        assert_eq!(parse("1\nc\nH a b c\n"), Err(XyzError::BadRow(3)));
        let inconsistent = "1\nc\nH 1 2 3\n1\nc\nHe 1 2 3\n";
        assert_eq!(parse(inconsistent), Err(XyzError::InconsistentAtoms(1)));
    }

    #[test]
    fn later_frame_with_another_atom_count_is_inconsistent() {
        let more = "1\nc\nH 1 2 3\n2\nc\nH 1 2 3\nH 4 5 6\n";
        assert_eq!(parse(more), Err(XyzError::InconsistentAtoms(1)));
        let fewer = "2\nc\nH 1 2 3\nO 4 5 6\n1\nc\nH 1 2 3\n";
        assert_eq!(parse(fewer), Err(XyzError::InconsistentAtoms(1)));
    }

    #[test]
    fn a_malformed_row_outranks_an_earlier_element_mismatch() {
        // Row 7's element differs from frame 0's and row 8 is malformed:
        // the frame's rows parse first, so the bad row is what is reported.
        let text = "2\nc\nH 1 2 3\nO 4 5 6\n2\nc\nHe 1 2 3\nO 4 5\n";
        assert_eq!(parse(text), Err(XyzError::BadRow(8)));
    }

    #[test]
    fn forged_atom_counts_are_truncated_not_reserved() {
        // 2^62 rows overflowed the up-front reservation (a panic); 10^12
        // made the allocator fail (an abort). Both are short files.
        for n in ["4611686018427387904", "1000000000000"] {
            assert_eq!(parse(&format!("{n}\ncomment\nCu 0 0 0\n")), Err(XyzError::Truncated));
        }
    }

    #[test]
    fn empty_input_is_empty_trajectory() {
        let t = parse("").unwrap();
        assert!(t.frames.is_empty());
    }
}
