//! LZ77 dictionary compression with canonical-Huffman token coding.
//!
//! This is the workspace's stand-in for Zstd (the final stage of the MDZ
//! pipeline) and, at different effort [`Level`]s, for the Zlib and Brotli
//! baselines of the paper's Table V. It is a deflate-class design:
//!
//! * 64 KiB sliding window, hash-chain match finder over 4-byte prefixes,
//!   optional lazy (one-step-deferred) matching,
//! * tokens are either literal bytes or `(length, distance)` matches,
//! * literal/length symbols and distance-bucket symbols each get their own
//!   canonical Huffman code; bucket extra bits go to a shared bit stream.
//!
//! What MDZ relies on from this stage is exactly what any LZ family member
//! provides: repeated byte patterns — in particular the long runs produced by
//! Seq-2 interleaving of temporally stable quantization codes — collapse to
//! short match tokens.

use mdz_entropy::{
    huffman::{huffman_decode_at_limited, huffman_encode_into},
    read_uvarint, write_uvarint, BitReader, BitWriter, EntropyError, HuffmanScratch, Result,
    StreamLimits,
};

/// Minimum match length worth emitting.
const MIN_MATCH: usize = 4;
/// Maximum match length (keeps length buckets small).
const MAX_MATCH: usize = 1 << 10;
/// Sliding-window size; distances never exceed this.
const WINDOW: usize = 1 << 16;
/// Hash table size (15-bit).
const HASH_BITS: u32 = 15;
/// First literal/length symbol that denotes a match bucket.
const MATCH_BASE: u32 = 256;

/// Compression effort, controlling match-finder depth and lazy matching.
///
/// `Fast` ≈ Zstd's default posture (shallow chains, greedy), `Default` ≈
/// Zlib (moderate chains, lazy), `High` ≈ Brotli (deep chains, lazy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// Shallow search, greedy parse.
    Fast,
    /// Moderate search, lazy parse.
    #[default]
    Default,
    /// Deep search, lazy parse.
    High,
}

impl Level {
    fn chain_depth(self) -> usize {
        match self {
            Level::Fast => 8,
            Level::Default => 48,
            Level::High => 256,
        }
    }

    fn lazy(self) -> bool {
        !matches!(self, Level::Fast)
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Exponential bucket of a non-negative value: bucket 0 holds 0, bucket k≥1
/// holds values with bit length k (i.e. `[2^(k-1), 2^k)`), encoded with
/// `k-1` extra bits.
#[inline]
fn bucket_of(v: u64) -> (u32, u32, u64) {
    if v == 0 {
        return (0, 0, 0);
    }
    let k = 64 - v.leading_zeros();
    let extra_bits = k - 1;
    let extra = v - (1u64 << extra_bits);
    (k, extra_bits, extra)
}

/// Inverse of [`bucket_of`]: reconstructs the value from its bucket and the
/// extra bits read from the stream.
#[inline]
fn unbucket(k: u32, bits: &mut BitReader<'_>) -> Result<u64> {
    if k == 0 {
        return Ok(0);
    }
    if k > 63 {
        return Err(EntropyError::Corrupt("bucket exponent too large"));
    }
    let extra_bits = k - 1;
    let extra = bits.read_bits(extra_bits)?;
    Ok((1u64 << extra_bits) + extra)
}

/// Reusable workspace for [`compress_into`]: match-finder tables, the parsed
/// token streams, and the Huffman encoder's scratch.
///
/// The match tables hold positions offset by `base`, which each call
/// advances past its input, so an entry left by an earlier call lies below
/// every window floor of the next and reads as empty: the tables are filled
/// once, not cleared per call.
#[derive(Debug, Clone, Default)]
pub struct Lz77Scratch {
    /// Hash-chain heads, indexed by 4-byte-prefix hash: `base` + position.
    head: Vec<i64>,
    /// Previous chain entry per window slot. A chain only reads the slot of
    /// a position the current call inserted, so stale slots are never read.
    prev: Vec<i64>,
    /// The `base` of the next call.
    base: i64,
    /// Literal bytes (0..=255) or `MATCH_BASE + length_bucket`.
    litlen: Vec<u32>,
    /// Distance buckets, one per match, in token order.
    dist: Vec<u32>,
    /// Length extras then distance extras, per match, in token order.
    extra: BitWriter,
    huffman: HuffmanScratch,
}

/// First-mismatch index between `a` and `b`, scanning at most `limit` bytes
/// (clamped to both slices' lengths): 8 bytes per step via XOR, then
/// bytewise.
///
/// Match finding costs hash-chain traversal, not byte comparison, so
/// wider vector compares do not pay here (EXPERIMENTS.md, "Per-stage
/// scalar vs SIMD breakdown").
#[inline]
fn match_len(a: &[u8], b: &[u8], limit: usize) -> usize {
    let limit = limit.min(a.len()).min(b.len());
    let mut i = 0;
    while i + 8 <= limit {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window"));
        let diff = x ^ y;
        if diff != 0 {
            // Little-endian: the lowest set bit marks the first unequal byte.
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < limit && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Finds the longest match for `pos` among the hash chain, at most `depth`
/// candidates, within the window. Chain entries are `base` + position.
/// Returns `(length, distance)`.
fn best_match(
    data: &[u8],
    pos: usize,
    (head, prev, base): (&[i64], &[i64], i64),
    depth: usize,
) -> (usize, usize) {
    let max_len = (data.len() - pos).min(MAX_MATCH);
    if max_len < MIN_MATCH {
        return (0, 0);
    }
    let mut best_len = 0;
    let mut best_dist = 0;
    let mut cand = head[hash4(data, pos)];
    let window_floor = base + pos.saturating_sub(WINDOW - 1) as i64;
    let mut steps = 0;
    while cand >= window_floor && steps < depth {
        let c = (cand - base) as usize;
        debug_assert!(c < pos);
        // Quick reject: candidate must beat the current best at its end byte.
        if best_len == 0 || data[c + best_len] == data[pos + best_len] {
            let len = match_len(&data[c..], &data[pos..], max_len);
            if len > best_len {
                best_len = len;
                best_dist = pos - c;
                if len == max_len {
                    break;
                }
            }
        }
        cand = prev[c % WINDOW];
        steps += 1;
    }
    if best_len >= MIN_MATCH {
        (best_len, best_dist)
    } else {
        (0, 0)
    }
}

/// Greedy/lazy LZ77 parse writing the token streams into `scratch`.
fn parse_into(data: &[u8], level: Level, scratch: &mut Lz77Scratch) {
    let Lz77Scratch { head, prev, base: next_base, litlen, dist: dists, extra, .. } = scratch;
    let n = data.len();
    // Every stored entry is below `next_base`, so this call stores above it
    // and clears the heads only when its positions would overflow.
    let end = i64::try_from(n).ok().and_then(|n| next_base.checked_add(n));
    let base = match end {
        Some(end) if head.len() == 1 << HASH_BITS => std::mem::replace(next_base, end),
        _ => {
            head.clear();
            head.resize(1 << HASH_BITS, i64::MIN);
            prev.resize(WINDOW, i64::MIN);
            *next_base = n as i64;
            0
        }
    };
    litlen.clear();
    dists.clear();
    extra.clear();
    let depth = level.chain_depth();
    let lazy = level.lazy();

    let insert = |head: &mut [i64], prev: &mut [i64], data: &[u8], i: usize| {
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            prev[i % WINDOW] = head[h];
            head[h] = base + i as i64;
        }
    };

    let mut i = 0;
    while i < n {
        let (mut len, mut dist) = best_match(data, i, (head, prev, base), depth);
        if lazy && (MIN_MATCH..MAX_MATCH).contains(&len) && i + 1 < n {
            // Peek one position ahead; if it has a strictly longer match,
            // emit a literal now and take the later match.
            insert(head, prev, data, i);
            let (len2, dist2) = best_match(data, i + 1, (head, prev, base), depth);
            if len2 > len + 1 {
                litlen.push(u32::from(data[i]));
                i += 1;
                len = len2;
                dist = dist2;
            }
        } else if len >= MIN_MATCH {
            insert(head, prev, data, i);
        }
        if len >= MIN_MATCH {
            let (lb, _, lextra) = bucket_of((len - MIN_MATCH) as u64);
            let (db, _, dextra) = bucket_of((dist - 1) as u64);
            litlen.push(MATCH_BASE + lb);
            dists.push(db);
            if lb > 0 {
                extra.write_bits(lextra, lb - 1);
            }
            if db > 0 {
                extra.write_bits(dextra, db - 1);
            }
            // Insert hash entries for the matched region (sparsely for speed).
            let start = i + 1;
            let end = i + len;
            let stride = if len > 64 { 4 } else { 1 };
            let mut j = start;
            while j < end {
                insert(head, prev, data, j);
                j += stride;
            }
            i = end;
        } else {
            insert(head, prev, data, i);
            litlen.push(u32::from(data[i]));
            i += 1;
        }
    }
}

/// Compresses `data` at the given effort level.
///
/// Output layout: `uvarint(raw_len)` · huffman(litlen) · huffman(dist) ·
/// `uvarint(extra_len)` · extra-bit bytes.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, level, &mut out, &mut Lz77Scratch::default());
    out
}

/// Appends the stream [`compress`] produces for `data` to `out`, reusing
/// `scratch` for the match finder, token streams, and Huffman workspace —
/// allocation-free once the scratch has grown to the working-set size.
pub fn compress_into(data: &[u8], level: Level, out: &mut Vec<u8>, scratch: &mut Lz77Scratch) {
    parse_into(data, level, scratch);
    write_uvarint(out, data.len() as u64);
    huffman_encode_into(&scratch.litlen, out, &mut scratch.huffman);
    huffman_encode_into(&scratch.dist, out, &mut scratch.huffman);
    let extra = scratch.extra.flush();
    write_uvarint(out, extra.len() as u64);
    out.extend_from_slice(extra);
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into_limited(data, &mut out, &StreamLimits::default())?;
    Ok(out)
}

/// [`decompress`] writing into a caller-owned vector (cleared first), with
/// a caller-supplied decode budget.
///
/// `limits.max_items` bounds the declared raw (decompressed) length; the
/// token streams are in turn bounded by that length (every token produces at
/// least one output byte), so a forged header cannot drive any allocation
/// past the budget.
pub fn decompress_into_limited(
    data: &[u8],
    out: &mut Vec<u8>,
    limits: &StreamLimits,
) -> Result<()> {
    out.clear();
    let mut pos = 0;
    let raw_len = read_uvarint(data, &mut pos)? as usize;
    limits.check_items(raw_len, "lz77 raw length")?;
    // Each litlen token emits ≥ 1 output byte and there are at most as many
    // distance symbols as match tokens, so both streams are bounded by the
    // declared output size.
    let token_limits = StreamLimits::with_max_items(raw_len);
    let litlen = huffman_decode_at_limited(data, &mut pos, &token_limits)?;
    if raw_len > litlen.len().saturating_mul(MAX_MATCH) {
        // Even if every token were a maximal match, the stream could not
        // reach the declared length — a forged header, caught before the
        // output buffer grows.
        return Err(EntropyError::Corrupt("declared length exceeds token capacity"));
    }
    let dist_syms = huffman_decode_at_limited(data, &mut pos, &token_limits)?;
    let extra_len = read_uvarint(data, &mut pos)? as usize;
    let end = pos
        .checked_add(extra_len)
        .filter(|&e| e <= data.len())
        .ok_or(EntropyError::UnexpectedEof)?;
    let mut bits = BitReader::new(&data[pos..end]);

    // Cap eager allocation: `raw_len` is untrusted until the token stream
    // actually produces that many bytes.
    out.reserve(raw_len.min(1 << 20));
    let mut next_dist = 0usize;
    for &sym in &litlen {
        if sym < MATCH_BASE {
            out.push(sym as u8);
        } else {
            let lb = sym - MATCH_BASE;
            let len = MIN_MATCH + unbucket(lb, &mut bits)? as usize;
            let db = *dist_syms
                .get(next_dist)
                .ok_or(EntropyError::Corrupt("missing distance symbol"))?;
            next_dist += 1;
            let dist = 1 + unbucket(db, &mut bits)? as usize;
            if dist > out.len() {
                return Err(EntropyError::Corrupt("match distance exceeds output"));
            }
            if len > MAX_MATCH {
                return Err(EntropyError::Corrupt("match length exceeds maximum"));
            }
            let start = out.len() - dist;
            // Byte-by-byte copy: overlapping matches (dist < len) are legal.
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() > raw_len {
            return Err(EntropyError::Corrupt("output exceeds declared length"));
        }
    }
    if out.len() != raw_len {
        return Err(EntropyError::Corrupt("output shorter than declared length"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8], level: Level) -> usize {
        let c = compress(data, level);
        assert_eq!(decompress(&c).unwrap(), data, "level {level:?}");
        c.len()
    }

    fn all_levels(data: &[u8]) {
        for level in [Level::Fast, Level::Default, Level::High] {
            round_trip(data, level);
        }
    }

    #[test]
    fn empty_input() {
        all_levels(&[]);
    }

    /// The reference `match_len` is held to: one byte per step.
    fn match_len_bytewise(a: &[u8], b: &[u8], limit: usize) -> usize {
        a.iter().zip(b).take(limit).take_while(|(x, y)| x == y).count()
    }

    #[test]
    fn match_len_agrees_with_bytewise_reference() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let n = 300;
        let a: Vec<u8> = (0..n).map(|_| (rng() >> 56) as u8).collect();
        // Plant the first mismatch at every offset, including none at all,
        // to cross every 8-byte step and the bytewise tail; the last limits
        // run past one slice or both.
        for mismatch in (0..n).chain([n]) {
            let mut b = a.clone();
            if mismatch < n {
                b[mismatch] ^= 0x80;
            }
            for limit in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100, n, n + 1, 2 * n] {
                for (x, y) in [(&a[..], &b[..]), (&a[..], &b[..n / 2]), (&a[..n / 3], &b[..])] {
                    assert_eq!(
                        match_len(x, y, limit),
                        match_len_bytewise(x, y, limit),
                        "mismatch at {mismatch} limit {limit}, lengths {} and {}",
                        x.len(),
                        y.len()
                    );
                }
            }
        }
    }

    #[test]
    fn short_inputs_below_min_match() {
        all_levels(b"a");
        all_levels(b"abc");
        all_levels(b"abcd");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let size = round_trip(&data, Level::Default);
        assert!(size < data.len() / 10, "{size} vs {}", data.len());
    }

    #[test]
    fn all_same_byte() {
        let data = vec![7u8; 100_000];
        let size = round_trip(&data, Level::Default);
        assert!(size < 600, "run of identical bytes should collapse, got {size}");
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "abab..." forces dist=2 matches with len >> dist.
        let mut data = Vec::new();
        for _ in 0..5000 {
            data.extend_from_slice(b"ab");
        }
        all_levels(&data);
    }

    #[test]
    fn incompressible_random_bytes_round_trip() {
        let mut state = 0x243F6A8885A308D3u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let size = round_trip(&data, Level::Default);
        // Random bytes should not blow up by more than a few percent.
        assert!(size < data.len() + data.len() / 8 + 1024);
    }

    #[test]
    fn long_range_matches_within_window() {
        let mut data = vec![0u8; 0];
        let phrase: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        data.extend_from_slice(&phrase);
        data.extend(std::iter::repeat_n(0xEE, WINDOW - 2000));
        data.extend_from_slice(&phrase); // still inside the window
        all_levels(&data);
    }

    #[test]
    fn matches_beyond_window_are_not_taken() {
        let phrase: Vec<u8> = (0..500u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = phrase.clone();
        data.extend(std::iter::repeat_n(1u8, WINDOW + 100));
        data.extend_from_slice(&phrase);
        all_levels(&data);
    }

    #[test]
    fn max_match_length_boundary() {
        let data = vec![5u8; MAX_MATCH * 3 + 17];
        all_levels(&data);
    }

    #[test]
    fn binary_f64_like_data() {
        let floats: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.001).sin() * 12.5).collect();
        let bytes = crate::f64s_to_bytes(&floats);
        all_levels(&bytes);
    }

    #[test]
    fn higher_level_never_much_worse() {
        let data = b"abcabcabcdefdefdefxyzxyz".repeat(500);
        let fast = compress(&data, Level::Fast).len();
        let high = compress(&data, Level::High).len();
        assert!(high <= fast + fast / 4, "high={high} fast={fast}");
    }

    #[test]
    fn truncated_and_corrupt_streams_error() {
        let data = b"hello world hello world hello world".repeat(100);
        let c = compress(&data, Level::Default);
        for cut in [0, 1, c.len() / 3, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = c.clone();
        for i in (0..bad.len()).step_by(7) {
            bad[i] ^= 0x55;
            let _ = decompress(&bad); // must not panic
            bad[i] ^= 0x55;
        }
    }

    #[test]
    fn forged_giant_raw_len_does_not_allocate() {
        // Regression: a stream claiming a 2^33 output with a tiny token
        // stream must error cheaply rather than pre-allocate gigabytes.
        let real = compress(b"abcabcabc", Level::Default);
        let mut forged = Vec::new();
        mdz_entropy::write_uvarint(&mut forged, 1 << 33);
        // Append the rest of a real stream (skipping its own length varint).
        let mut pos = 0;
        mdz_entropy::read_uvarint(&real, &mut pos).unwrap();
        forged.extend_from_slice(&real[pos..]);
        assert!(decompress(&forged).is_err());
    }

    #[test]
    fn compress_into_with_reused_scratch_is_byte_identical() {
        // Past the window and then its own prefix: a head left by the long
        // input would point at the same bytes in the short one, and match.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let long: Vec<u8> = (0..70_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                b"mdz"[(state >> 62) as usize % 3]
            })
            .collect();
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"abcd".to_vec(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(50),
            vec![7u8; 20_000],
            (0..30_000u32).map(|i| (i * 7 % 256) as u8).collect(),
            long.clone(),
            long[..25_000].to_vec(),
        ];
        let mut scratch = Lz77Scratch::default();
        let mut out = Vec::new();
        for data in &inputs {
            for level in [Level::Fast, Level::Default, Level::High] {
                out.clear();
                compress_into(data, level, &mut out, &mut scratch);
                // Fresh-scratch compression must agree byte for byte: no
                // match-finder or token state may leak between calls.
                assert_eq!(out, compress(data, level), "{} bytes, {level:?}", data.len());
                assert_eq!(&decompress(&out).unwrap(), data);
            }
        }
    }

    #[test]
    fn tables_are_refilled_when_the_position_base_would_overflow() {
        let data = b"abcabcabcdefdefdef".repeat(40);
        let mut scratch = Lz77Scratch::default();
        let mut out = Vec::new();
        compress_into(&data, Level::Default, &mut out, &mut scratch);
        scratch.base = i64::MAX - 100;
        out.clear();
        compress_into(&data, Level::Default, &mut out, &mut scratch);
        assert_eq!(scratch.base, data.len() as i64, "the tables were not refilled");
        assert_eq!(out, compress(&data, Level::Default));
    }

    #[test]
    fn decompress_rejects_a_length_past_the_budget() {
        let packed = compress(&[0u8; 4096], Level::Default);
        let mut out = Vec::new();
        assert_eq!(
            decompress_into_limited(&packed, &mut out, &StreamLimits::with_max_items(16)),
            Err(EntropyError::LimitExceeded { what: "lz77 raw length", limit: 16 })
        );
    }

    #[test]
    fn bucket_round_trip() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 255, 256, 65535, 1 << 20] {
            let (k, nbits, extra) = bucket_of(v);
            let mut w = BitWriter::new();
            w.write_bits(extra, nbits);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(unbucket(k, &mut r).unwrap(), v);
        }
    }
}
