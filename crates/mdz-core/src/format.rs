//! MDZ block container format.
//!
//! Each compressed buffer is a self-describing *block*:
//!
//! ```text
//! magic "MDZB" · version u8 · method u8 · flags u8
//! n_snapshots uvarint · n_values uvarint
//! eps f64 (LE) · radius uvarint
//! [mu f64 · lambda f64]            — if FLAG_GRID
//! payload_len uvarint · payload    — the inner streams, LZ77-compressed
//!                                    or, with FLAG_STORED, as they are
//! ```
//!
//! The inner payload holds the Huffman-coded quantization codes (`B`), the
//! Huffman-coded level-index deltas (`J`, VQ-coded snapshots only), and the
//! escape list. Everything a decompressor needs is in the block except the
//! cross-buffer reference snapshot used by MT, which both endpoints derive
//! deterministically from the first block of the stream.

use crate::{MdzError, Result};
use mdz_entropy::{read_uvarint, write_uvarint};

/// Block magic bytes.
pub const MAGIC: [u8; 4] = *b"MDZB";
/// Format version of classic fixed-scale blocks.
pub const VERSION: u8 = 1;
/// Format version of blocks carrying [`FLAG_BIT_ADAPTIVE`].
///
/// Bit-adaptive blocks change the wire encoding of the `B` code stream
/// (per-chunk bit widths instead of one entropy-coded stream), so version-1
/// decoders must reject them outright rather than misparse the payload. The
/// version byte and the flag are redundant on purpose: each one
/// cross-checks the other, so a forged flag on a version-1 block (or a
/// stripped flag on a version-2 block) fails header validation instead of
/// reaching the payload parser.
pub const VERSION_BIT_ADAPTIVE: u8 = 2;
/// Format version of blocks carrying [`FLAG_STORED`], bit-adaptive or not.
///
/// A stored payload is the inner bytes themselves, which an LZ77 decoder
/// would misread, so readers that predate the flag must reject the block
/// as an unsupported version. The version byte and the flag cross-check
/// each other as they do for [`VERSION_BIT_ADAPTIVE`].
pub const VERSION_STORED: u8 = 3;

/// Byte offset of the flags byte within a serialized block: right after the
/// magic, the version byte, and the method byte. The `f32` tagging path
/// patches this byte in place, so it is part of the format contract.
pub const FLAGS_OFFSET: usize = MAGIC.len() + 2;

/// The level grid was detected and is serialized in the header.
pub const FLAG_GRID: u8 = 1 << 0;
/// Codes are Seq-2 (particle-major) interleaved.
pub const FLAG_SEQ2: u8 = 1 << 1;
/// The buffer's first snapshot was coded with in-snapshot Lorenzo
/// prediction (no grid / no reference snapshot available).
pub const FLAG_FIRST_LORENZO: u8 = 1 << 2;
/// Integer streams are range-coded instead of Huffman-coded.
pub const FLAG_RANGE_CODED: u8 = 1 << 3;
/// The source data was `f32`; decompress with
/// [`crate::Decompressor::decompress_block_f32`] to recover it.
pub const FLAG_F32: u8 = 1 << 4;
/// The `B` code stream is bit-adaptive ([`crate::QuantizerKind::BitAdaptive`]):
/// packed with per-chunk bit widths instead of entropy-coded over the fixed
/// `[1, 2·radius)` alphabet. Implies (and requires) the block version byte
/// [`VERSION_BIT_ADAPTIVE`], unless [`FLAG_STORED`] sets version 3.
pub const FLAG_BIT_ADAPTIVE: u8 = 1 << 5;
/// The payload is the inner streams as they are, not LZ77-compressed.
/// Implies (and requires) the block version byte [`VERSION_STORED`].
pub const FLAG_STORED: u8 = 1 << 6;

/// MDZ compression method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Vector quantization on every snapshot (purely spatial).
    Vq,
    /// VQ on the buffer's first snapshot, time prediction for the rest.
    Vqt,
    /// Reference-snapshot prediction for the first snapshot, time
    /// prediction for the rest.
    Mt,
    /// Extension (not in the paper): like MT but with second-order (linear
    /// extrapolation) time prediction `2·x_{t−1} − x_{t−2}` from the third
    /// snapshot of each buffer on. Wins on coherently drifting particles
    /// (e.g. cosmology); see the `ablations` experiment.
    Mt2,
    /// Runtime selection among the concrete methods (the paper's ADP;
    /// default).
    #[default]
    Adaptive,
}

impl Method {
    /// Wire encoding. [`Method::Adaptive`] never appears on the wire — a
    /// block always records the concrete method that produced it.
    pub fn to_wire(self) -> u8 {
        match self {
            Method::Vq => 0,
            Method::Vqt => 1,
            Method::Mt => 2,
            Method::Mt2 => 3,
            Method::Adaptive => panic!("Adaptive is not a wire method"),
        }
    }

    /// Parses a wire method id.
    pub fn from_wire(v: u8) -> Result<Self> {
        match v {
            0 => Ok(Method::Vq),
            1 => Ok(Method::Vqt),
            2 => Ok(Method::Mt),
            3 => Ok(Method::Mt2),
            _ => Err(MdzError::BadHeader("unknown method id")),
        }
    }

    /// The three concrete candidates the paper's adaptive selector ranks.
    pub const CONCRETE: [Method; 3] = [Method::Vq, Method::Vqt, Method::Mt];

    /// Extended candidate set including the second-order predictor.
    pub const EXTENDED: [Method; 4] = [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2];
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Method::Vq => "VQ",
            Method::Vqt => "VQT",
            Method::Mt => "MT",
            Method::Mt2 => "MT2",
            Method::Adaptive => "ADP",
        };
        write!(f, "{s}")
    }
}

/// Parsed block header.
#[derive(Debug, Clone, Copy)]
pub struct BlockHeader {
    /// Concrete method that produced the block.
    pub method: Method,
    /// Flag bits (`FLAG_*`).
    pub flags: u8,
    /// Snapshots in the block.
    pub n_snapshots: usize,
    /// Values per snapshot.
    pub n_values: usize,
    /// Absolute error bound the block was coded under.
    pub eps: f64,
    /// Quantization radius (half the quantization scale).
    pub radius: u32,
    /// `(mu, lambda)` when [`FLAG_GRID`] is set.
    pub grid: Option<(f64, f64)>,
}

impl BlockHeader {
    /// Serializes the header into `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(if self.flags & FLAG_STORED != 0 {
            VERSION_STORED
        } else if self.flags & FLAG_BIT_ADAPTIVE != 0 {
            VERSION_BIT_ADAPTIVE
        } else {
            VERSION
        });
        out.push(self.method.to_wire());
        out.push(self.flags);
        write_uvarint(out, self.n_snapshots as u64);
        write_uvarint(out, self.n_values as u64);
        out.extend_from_slice(&self.eps.to_le_bytes());
        write_uvarint(out, u64::from(self.radius));
        if let Some((mu, lambda)) = self.grid {
            debug_assert!(self.flags & FLAG_GRID != 0);
            out.extend_from_slice(&mu.to_le_bytes());
            out.extend_from_slice(&lambda.to_le_bytes());
        } else {
            debug_assert!(self.flags & FLAG_GRID == 0);
        }
    }

    /// Parses a header from `data` at `*pos`, advancing past it.
    pub fn read(data: &[u8], pos: &mut usize) -> Result<Self> {
        let magic = data.get(*pos..*pos + 4).ok_or(MdzError::BadHeader("truncated magic"))?;
        if magic != MAGIC {
            return Err(MdzError::BadHeader("not an MDZ block"));
        }
        *pos += 4;
        let version = *data.get(*pos).ok_or(MdzError::BadHeader("truncated version"))?;
        *pos += 1;
        if !(VERSION..=VERSION_STORED).contains(&version) {
            return Err(MdzError::BadHeader("unsupported version"));
        }
        let method =
            Method::from_wire(*data.get(*pos).ok_or(MdzError::BadHeader("truncated method"))?)?;
        *pos += 1;
        let flags = *data.get(*pos).ok_or(MdzError::BadHeader("truncated flags"))?;
        *pos += 1;
        // The version byte and the stored and bit-adaptive flags must agree
        // (version 3 iff stored, else version 2 iff bit-adaptive); a
        // mismatch means the block was tampered with or mis-assembled.
        let stored = flags & FLAG_STORED != 0;
        if stored != (version == VERSION_STORED) {
            return Err(MdzError::BadHeader("version/flag mismatch for stored payload"));
        }
        if !stored && (flags & FLAG_BIT_ADAPTIVE != 0) != (version == VERSION_BIT_ADAPTIVE) {
            return Err(MdzError::BadHeader("version/flag mismatch for bit-adaptive stream"));
        }
        let n_snapshots = read_uvarint(data, pos)? as usize;
        let n_values = read_uvarint(data, pos)? as usize;
        if n_snapshots == 0 || n_values == 0 {
            return Err(MdzError::BadHeader("empty block dimensions"));
        }
        if n_snapshots.checked_mul(n_values).is_none() || n_snapshots * n_values > (1usize << 34) {
            return Err(MdzError::BadHeader("implausible block dimensions"));
        }
        let eps_bytes = data.get(*pos..*pos + 8).ok_or(MdzError::BadHeader("truncated eps"))?;
        *pos += 8;
        let eps = f64::from_le_bytes(eps_bytes.try_into().unwrap());
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(MdzError::BadHeader("invalid eps"));
        }
        let radius64 = read_uvarint(data, pos)?;
        if !(2..=(1 << 24)).contains(&radius64) {
            return Err(MdzError::BadHeader("invalid radius"));
        }
        let radius = radius64 as u32;
        let grid = if flags & FLAG_GRID != 0 {
            let mu_b = data.get(*pos..*pos + 8).ok_or(MdzError::BadHeader("truncated grid"))?;
            *pos += 8;
            let la_b = data.get(*pos..*pos + 8).ok_or(MdzError::BadHeader("truncated grid"))?;
            *pos += 8;
            let mu = f64::from_le_bytes(mu_b.try_into().unwrap());
            let lambda = f64::from_le_bytes(la_b.try_into().unwrap());
            if !(lambda > 0.0 && lambda.is_finite() && mu.is_finite()) {
                return Err(MdzError::BadHeader("invalid grid"));
            }
            Some((mu, lambda))
        } else {
            None
        };
        Ok(Self { method, flags, n_snapshots, n_values, eps, radius, grid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> BlockHeader {
        BlockHeader {
            method: Method::Vqt,
            flags: FLAG_GRID | FLAG_SEQ2,
            n_snapshots: 10,
            n_values: 1037,
            eps: 1e-3,
            radius: 512,
            grid: Some((-3.5, 2.25)),
        }
    }

    #[test]
    fn flags_offset_matches_serialized_layout() {
        for flags in [0u8, FLAG_GRID | FLAG_SEQ2, FLAG_F32, 0xFF] {
            let h = BlockHeader {
                flags,
                grid: (flags & FLAG_GRID != 0).then_some((-3.5, 2.25)),
                ..sample_header()
            };
            let mut buf = Vec::new();
            h.write(&mut buf);
            assert_eq!(buf[FLAGS_OFFSET], flags);
        }
    }

    #[test]
    fn header_round_trip() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        let mut pos = 0;
        let parsed = BlockHeader::read(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(parsed.method, h.method);
        assert_eq!(parsed.flags, h.flags);
        assert_eq!(parsed.n_snapshots, h.n_snapshots);
        assert_eq!(parsed.n_values, h.n_values);
        assert_eq!(parsed.eps, h.eps);
        assert_eq!(parsed.radius, h.radius);
        assert_eq!(parsed.grid, h.grid);
    }

    #[test]
    fn header_without_grid() {
        let h = BlockHeader { flags: 0, grid: None, method: Method::Mt, ..sample_header() };
        let mut buf = Vec::new();
        h.write(&mut buf);
        let mut pos = 0;
        let parsed = BlockHeader::read(&buf, &mut pos).unwrap();
        assert_eq!(parsed.grid, None);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        buf[0] = b'X';
        assert!(matches!(BlockHeader::read(&buf, &mut 0), Err(MdzError::BadHeader(_))));
    }

    #[test]
    fn truncations_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        for cut in 0..buf.len() {
            assert!(BlockHeader::read(&buf[..cut], &mut 0).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        // Corrupt eps to NaN.
        let mut bad = buf.clone();
        let eps_off = 4 + 3 + 1 + 2; // magic+ver+method+flags, uvarint(10)=1, uvarint(1037)=2
        for b in &mut bad[eps_off..eps_off + 8] {
            *b = 0xFF;
        }
        assert!(BlockHeader::read(&bad, &mut 0).is_err());
    }

    #[test]
    fn bit_adaptive_header_uses_version_two() {
        let h = BlockHeader {
            flags: FLAG_BIT_ADAPTIVE | FLAG_SEQ2,
            grid: None,
            method: Method::Mt,
            ..sample_header()
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf[4], VERSION_BIT_ADAPTIVE);
        let mut pos = 0;
        let parsed = BlockHeader::read(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(parsed.flags, h.flags);
    }

    #[test]
    fn version_flag_mismatch_rejected_both_ways() {
        // Forged flag on a version-1 block.
        let mut buf = Vec::new();
        BlockHeader { flags: 0, grid: None, method: Method::Mt, ..sample_header() }.write(&mut buf);
        buf[FLAGS_OFFSET] |= FLAG_BIT_ADAPTIVE;
        assert_eq!(
            BlockHeader::read(&buf, &mut 0).map(|h| h.flags).unwrap_err(),
            MdzError::BadHeader("version/flag mismatch for bit-adaptive stream")
        );
        // Stripped flag on a version-2 block.
        let mut buf = Vec::new();
        BlockHeader { flags: FLAG_BIT_ADAPTIVE, grid: None, method: Method::Mt, ..sample_header() }
            .write(&mut buf);
        buf[FLAGS_OFFSET] &= !FLAG_BIT_ADAPTIVE;
        assert!(BlockHeader::read(&buf, &mut 0).is_err());
        // The stored flag forged on a version-1 and a version-2 block.
        for flags in [0, FLAG_BIT_ADAPTIVE] {
            let mut buf = Vec::new();
            BlockHeader { flags, grid: None, method: Method::Mt, ..sample_header() }
                .write(&mut buf);
            buf[FLAGS_OFFSET] |= FLAG_STORED;
            assert_eq!(
                BlockHeader::read(&buf, &mut 0).map(|h| h.flags).unwrap_err(),
                MdzError::BadHeader("version/flag mismatch for stored payload")
            );
        }
        // The stored flag stripped from a version-3 block, bit-adaptive or not.
        for flags in [FLAG_STORED, FLAG_STORED | FLAG_BIT_ADAPTIVE] {
            let mut buf = Vec::new();
            BlockHeader { flags, grid: None, method: Method::Mt, ..sample_header() }
                .write(&mut buf);
            assert_eq!(buf[4], VERSION_STORED);
            buf[FLAGS_OFFSET] &= !FLAG_STORED;
            assert_eq!(
                BlockHeader::read(&buf, &mut 0).map(|h| h.flags).unwrap_err(),
                MdzError::BadHeader("version/flag mismatch for stored payload")
            );
        }
        // Unknown future versions stay rejected.
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        buf[4] = 4;
        assert_eq!(
            BlockHeader::read(&buf, &mut 0).map(|h| h.flags).unwrap_err(),
            MdzError::BadHeader("unsupported version")
        );
    }

    #[test]
    fn stored_header_uses_version_three() {
        for flags in [FLAG_STORED | FLAG_SEQ2, FLAG_STORED | FLAG_BIT_ADAPTIVE] {
            let h = BlockHeader { flags, grid: None, method: Method::Mt, ..sample_header() };
            let mut buf = Vec::new();
            h.write(&mut buf);
            assert_eq!(buf[4], VERSION_STORED);
            let mut pos = 0;
            assert_eq!(BlockHeader::read(&buf, &mut pos).unwrap().flags, flags);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn wire_method_round_trip() {
        for m in Method::CONCRETE {
            assert_eq!(Method::from_wire(m.to_wire()).unwrap(), m);
        }
        assert!(Method::from_wire(9).is_err());
    }

    #[test]
    #[should_panic(expected = "not a wire method")]
    fn adaptive_has_no_wire_form() {
        let _ = Method::Adaptive.to_wire();
    }
}
