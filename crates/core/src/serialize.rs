//! Byte serialization of the packed format.
//!
//! A [`PackedMatrix`] is what a deployment would ship
//! to the accelerator's off-chip memory, so it needs a stable on-disk
//! form. The layout is deliberately simple and versioned:
//!
//! ```text
//! magic    : 4 bytes  "FNQ1"
//! rows     : u32 LE
//! cols     : u32 LE
//! channels : rows x {
//!     scale2    : f32 LE
//!     scale3    : f32 LE
//!     blocks    : ceil(ceil(cols/3) / 8) x 7 bytes (see `pack`)
//! }
//! ```
//!
//! Channel lengths and block counts are implied by `cols`, so the format
//! has no per-channel framing and a fixed, seekable stride. Everything
//! after the 12-byte header is a [`PackedMatrix`]'s in-memory body
//! ([`PackedMatrix::body`]), so [`to_bytes`] is the header plus one copy
//! of the body and [`from_bytes`] the header, length and shape checks plus
//! one copy back — one allocation whatever the row count.
//!
//! On top of the matrix blob sits the **shard wire format**
//! ([`shard_to_bytes`] / [`shard_from_bytes`]): a versioned header naming
//! which row range of which weight site a payload carries, plus a checksum
//! over the payload. It is what a row-sharded deployment ships to each
//! worker — `ShardPlan::rebuild` in `fineq-lm` round-trips every slice
//! through these bytes, so a multi-process deployment is a transport away:
//!
//! ```text
//! magic      : 4 bytes  "FNQS"
//! version    : u16 LE   (currently 2; other versions are rejected)
//! shard_index: u16 LE   which worker this slice belongs to
//! n_shards   : u16 LE   total workers in the plan
//! site_id    : u32 LE   opaque weight-site id assigned by the planner
//! row_start  : u32 LE   first output channel of the slice
//! total_rows : u32 LE   rows of the unsharded site matrix
//! checksum   : u32 LE   checksum(checksum(0, 22 preceding header bytes),
//!                       payload) (corrupt routing metadata is caught,
//!                       not just corrupt weight bytes)
//! payload    : a whole `to_bytes` blob (the slice itself)
//! ```
//!
//! The checksum is the frame layer's [`checksum`]; a version-1 envelope
//! (bytewise FNV-1a) is rejected as [`DecodeError::BadVersion`]`(1)`.

use crate::frame::checksum;
use crate::pack::{channel_stride, PackedMatrix};

/// Magic header identifying the format (version 1).
pub const MAGIC: &[u8; 4] = b"FNQ1";

/// Magic header identifying a sharded-slice envelope.
pub const SHARD_MAGIC: &[u8; 4] = b"FNQS";

/// Shard wire-format version emitted by [`shard_to_bytes`]; any other
/// version on the wire is rejected with [`DecodeError::BadVersion`].
pub const SHARD_VERSION: u16 = 2;

/// Fixed byte length of the shard header preceding the payload.
pub const SHARD_HEADER_BYTES: usize = 26;

/// Byte length of the `FNQ1` header (magic, rows, cols) before the body.
const HEADER_BYTES: usize = 12;

/// Errors from [`from_bytes`] / [`shard_from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter or longer than its header plus declared payload.
    Truncated,
    /// Wrong magic bytes (not a FineQ blob).
    BadMagic,
    /// Header declares an empty or overflowing shape.
    BadShape,
    /// Shard envelope carries an unsupported wire-format version.
    BadVersion(u16),
    /// Shard payload bytes do not match the header checksum.
    BadChecksum,
    /// Shard header names an impossible shard index or channel range.
    BadRange,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "unexpected end of input"),
            DecodeError::BadMagic => write!(f, "missing FNQ1/FNQS magic"),
            DecodeError::BadShape => write!(f, "invalid matrix shape in header"),
            DecodeError::BadVersion(v) => write!(f, "unsupported shard wire version {v}"),
            DecodeError::BadChecksum => write!(f, "shard payload checksum mismatch"),
            DecodeError::BadRange => write!(f, "shard index or channel range out of bounds"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialized byte size of a matrix with the given shape.
///
/// # Panics
///
/// Panics if the shape's byte size overflows `usize` (decoders use
/// [`checked_byte_size`] and reject such shapes instead).
pub fn byte_size(rows: usize, cols: usize) -> usize {
    checked_byte_size(rows, cols).expect("matrix shape overflows serialized byte size")
}

/// [`byte_size`] with overflow checking: `None` when the shape cannot be
/// addressed in memory — the form [`from_bytes`] validates lengths with,
/// so a hostile header can never wrap the expected size into a small
/// number that happens to match the input.
pub fn checked_byte_size(rows: usize, cols: usize) -> Option<usize> {
    // A row's stride is under a third of `cols` bytes plus 15: never itself
    // an overflow.
    rows.checked_mul(channel_stride(cols))?.checked_add(HEADER_BYTES)
}

/// FNV-1a over `bytes`: the pinned-output hash of the quantizer's
/// bit-identity oracles, nothing more. No byte on the wire is guarded by
/// it — frames and shard envelopes use [`checksum`].
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Appends the `FNQ1` blob of `m` to `out`: the header, then the body.
fn write_matrix(out: &mut Vec<u8>, m: &PackedMatrix) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    out.extend_from_slice(m.body());
}

/// Serializes a packed matrix to bytes.
pub fn to_bytes(m: &PackedMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(byte_size(m.rows(), m.cols()));
    write_matrix(&mut out, m);
    out
}

/// Deserializes a packed matrix from bytes produced by [`to_bytes`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, wrong magic, or a
/// degenerate shape.
pub fn from_bytes(bytes: &[u8]) -> Result<PackedMatrix, DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    if &bytes[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let rows = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let cols = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if rows == 0 || cols == 0 || rows.checked_mul(cols).is_none() {
        return Err(DecodeError::BadShape);
    }
    // Exact-length check through the one shared (overflow-checked) size
    // formula: trailing garbage is rejected, and a header whose implied
    // size overflows can never alias a valid length.
    let Some(expect) = checked_byte_size(rows, cols) else {
        return Err(DecodeError::BadShape);
    };
    if bytes.len() != expect {
        return Err(DecodeError::Truncated);
    }
    Ok(PackedMatrix::from_body(rows, cols, bytes[HEADER_BYTES..].to_vec()))
}

/// Header of one shard wire message: which row range of which weight site
/// the payload carries, within which shard plan. `site_id` is opaque to
/// this crate — the planner (in `fineq-lm`) assigns and validates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Which worker shard this slice belongs to (`< n_shards`).
    pub shard_index: u16,
    /// Total worker shards in the plan (positive).
    pub n_shards: u16,
    /// Opaque weight-site identifier assigned by the shard planner.
    pub site_id: u32,
    /// First output channel (row) of the unsharded site matrix this slice
    /// covers.
    pub row_start: u32,
    /// Rows of the unsharded site matrix (the slice must fit inside).
    pub total_rows: u32,
}

/// Serializes one shard slice: the versioned envelope header followed by
/// the [`to_bytes`] payload, with a [`checksum`] over the 22 header bytes
/// that precede it (magic, version and every header field), chained into
/// one over the whole payload.
///
/// # Panics
///
/// Panics if the header is internally inconsistent with the slice
/// (`shard_index >= n_shards`, or `row_start + rows` exceeding
/// `total_rows`) — producing such bytes would be an encoder bug, not a
/// wire condition.
pub fn shard_to_bytes(m: &PackedMatrix, header: &ShardHeader) -> Vec<u8> {
    assert!(header.n_shards > 0, "shard plan must have at least one shard");
    assert!(header.shard_index < header.n_shards, "shard index out of plan");
    assert!(
        header.row_start as usize + m.rows() <= header.total_rows as usize,
        "slice rows {}..{} exceed the site's {} channels",
        header.row_start,
        header.row_start as usize + m.rows(),
        header.total_rows
    );
    let mut out = Vec::with_capacity(SHARD_HEADER_BYTES + byte_size(m.rows(), m.cols()));
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    out.extend_from_slice(&header.shard_index.to_le_bytes());
    out.extend_from_slice(&header.n_shards.to_le_bytes());
    out.extend_from_slice(&header.site_id.to_le_bytes());
    out.extend_from_slice(&header.row_start.to_le_bytes());
    out.extend_from_slice(&header.total_rows.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the checksum, once the payload is in
    write_matrix(&mut out, m);
    // The checksum covers the header fields AND the payload, so corrupted
    // routing metadata (site_id, row range) is caught, not just corrupted
    // weight bytes.
    let (header_bytes, payload) = out.split_at(SHARD_HEADER_BYTES);
    let sum = checksum(checksum(0, &header_bytes[..SHARD_HEADER_BYTES - 4]), payload);
    out[SHARD_HEADER_BYTES - 4..SHARD_HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Deserializes one shard wire message produced by [`shard_to_bytes`].
///
/// # Errors
///
/// [`DecodeError::Truncated`] for short input, [`DecodeError::BadMagic`]
/// for a non-shard blob, [`DecodeError::BadVersion`] for any version other
/// than [`SHARD_VERSION`], [`DecodeError::BadRange`] for an impossible
/// shard index or a row range that does not fit the declared site,
/// [`DecodeError::BadChecksum`] for corrupted payload bytes, plus every
/// payload-level error [`from_bytes`] reports.
pub fn shard_from_bytes(bytes: &[u8]) -> Result<(ShardHeader, PackedMatrix), DecodeError> {
    if bytes.len() < SHARD_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    if &bytes[0..4] != SHARD_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().expect("2 bytes"));
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let version = u16_at(4);
    if version != SHARD_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    // Checksum before the fields are interpreted: any in-transit flip,
    // routing metadata included, is BadChecksum (magic and version report
    // their own errors above).
    let payload = &bytes[SHARD_HEADER_BYTES..];
    if checksum(checksum(0, &bytes[..SHARD_HEADER_BYTES - 4]), payload) != u32_at(22) {
        return Err(DecodeError::BadChecksum);
    }
    let header = ShardHeader {
        shard_index: u16_at(6),
        n_shards: u16_at(8),
        site_id: u32_at(10),
        row_start: u32_at(14),
        total_rows: u32_at(18),
    };
    if header.n_shards == 0 || header.shard_index >= header.n_shards {
        return Err(DecodeError::BadRange);
    }
    let m = from_bytes(payload)?;
    if header.row_start as usize + m.rows() > header.total_rows as usize {
        return Err(DecodeError::BadRange);
    }
    Ok((header, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FineQuantizer;
    use fineq_tensor::{Matrix, Rng};

    fn sample_packed(rows: usize, cols: usize, seed: u64) -> PackedMatrix {
        let mut rng = Rng::seed_from(seed);
        let w = Matrix::from_fn(rows, cols, |_, _| {
            let v = rng.laplace(0.0, 0.03);
            if rng.chance(0.03) {
                v * 12.0
            } else {
                v
            }
        });
        FineQuantizer::paper().quantize_packed(&w)
    }

    #[test]
    fn round_trip_preserves_everything() {
        for (rows, cols) in [(1usize, 3usize), (5, 47), (16, 96)] {
            let m = sample_packed(rows, cols, rows as u64 * 31 + cols as u64);
            let bytes = to_bytes(&m);
            assert_eq!(bytes.len(), byte_size(rows, cols));
            let back = from_bytes(&bytes).expect("round trip");
            assert_eq!(back, m, "{rows}x{cols}");
            assert_eq!(back.dequantize(), m.dequantize());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let m = sample_packed(2, 6, 1);
        let mut bytes = to_bytes(&m);
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn truncation_is_detected() {
        let m = sample_packed(3, 24, 2);
        let bytes = to_bytes(&m);
        assert_eq!(from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(), DecodeError::Truncated);
        assert_eq!(from_bytes(&bytes[..8]).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let m = sample_packed(2, 9, 3);
        let mut bytes = to_bytes(&m);
        bytes.push(0);
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn zero_shape_is_rejected() {
        let m = sample_packed(1, 3, 4);
        let mut bytes = to_bytes(&m);
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::BadShape);
    }

    #[test]
    fn size_formula_matches_paper_budget() {
        // 24-wide rows: 8 clusters = 1 block of 7 bytes + 8 scale bytes.
        assert_eq!(byte_size(1, 24), 4 + 8 + 8 + 7);
    }

    #[test]
    fn overflowing_shape_is_rejected_not_wrapped() {
        let m = sample_packed(1, 3, 5);
        let mut bytes = to_bytes(&m);
        // rows * cols fits, but rows * stride would overflow usize.
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::BadShape | DecodeError::Truncated
        ));
        assert_eq!(checked_byte_size(usize::MAX, usize::MAX), None);
    }

    #[test]
    fn random_corruption_never_panics_and_stays_self_consistent() {
        // Fuzz-ish: seeded random bit flips, truncations and extensions of
        // a valid blob must either be rejected with an error or decode to a
        // matrix that re-serializes to exactly the mutated bytes — never
        // panic, never silently reinterpret a different length.
        let m = sample_packed(6, 52, 9);
        let bytes = to_bytes(&m);
        let mut rng = Rng::seed_from(0xC0FFEE);
        for trial in 0..600 {
            let mut mutated = bytes.clone();
            match rng.below(3) {
                0 => {
                    let i = rng.below(mutated.len());
                    mutated[i] ^= 1 << rng.below(8);
                }
                1 => mutated.truncate(rng.below(mutated.len())),
                _ => {
                    for _ in 0..1 + rng.below(9) {
                        mutated.push(rng.below(256) as u8);
                    }
                }
            }
            match from_bytes(&mutated) {
                Err(_) => {}
                Ok(back) => {
                    assert_eq!(to_bytes(&back), mutated, "trial {trial} must round-trip exactly");
                }
            }
        }
    }

    fn sample_header() -> ShardHeader {
        ShardHeader { shard_index: 1, n_shards: 3, site_id: 7, row_start: 2, total_rows: 9 }
    }

    #[test]
    fn shard_round_trip_preserves_header_and_slice() {
        let m = sample_packed(4, 47, 11);
        let header = sample_header();
        let bytes = shard_to_bytes(&m, &header);
        assert_eq!(bytes.len(), SHARD_HEADER_BYTES + byte_size(4, 47));
        let (back_header, back) = shard_from_bytes(&bytes).expect("round trip");
        assert_eq!(back_header, header);
        assert_eq!(back, m);
    }

    #[test]
    fn shard_rejects_wrong_version() {
        let bytes = shard_to_bytes(&sample_packed(2, 12, 12), &sample_header());
        let mut wrong = bytes.clone();
        wrong[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(shard_from_bytes(&wrong).unwrap_err(), DecodeError::BadVersion(1));
        let mut magic = bytes;
        magic[3] = b'X';
        assert_eq!(shard_from_bytes(&magic).unwrap_err(), DecodeError::BadMagic);
    }

    /// Recomputes a mutated envelope's checksum so header-semantics tests
    /// reach the validation they target instead of tripping BadChecksum.
    fn refix_checksum(bytes: &mut [u8]) {
        let c = checksum(checksum(0, &bytes[..22]), &bytes[26..]);
        bytes[22..26].copy_from_slice(&c.to_le_bytes());
    }

    #[test]
    fn shard_rejects_corrupt_payload_and_corrupt_header_via_checksum() {
        let bytes = shard_to_bytes(&sample_packed(3, 24, 13), &sample_header());
        // Payload corruption.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert_eq!(shard_from_bytes(&corrupt).unwrap_err(), DecodeError::BadChecksum);
        // Header corruption that stays in-range (site_id bit flip): the
        // routing metadata is covered too, so a transported slice can
        // never silently land at the wrong weight site.
        let mut corrupt = bytes.clone();
        corrupt[10] ^= 0x01;
        assert_eq!(shard_from_bytes(&corrupt).unwrap_err(), DecodeError::BadChecksum);
        // In-range row_start flip: same protection.
        let mut corrupt = bytes;
        corrupt[14] ^= 0x01;
        assert_eq!(shard_from_bytes(&corrupt).unwrap_err(), DecodeError::BadChecksum);
    }

    /// Exhaustive, not sampled: every single-bit flip of every byte of an
    /// envelope, header and payload alike, is a typed rejection, with no
    /// re-checksumming after the flip. Magic and version report their
    /// own errors; anything else is `BadChecksum`, deterministically: a
    /// payload flip changes one word of one lane of the outer checksum; a
    /// header flip changes the inner checksum, which is the outer one's
    /// seed; a flip of the stored checksum leaves both sums as they were.
    /// Every step of the chain is a bijection in the word it absorbs and
    /// in its state, so no flip can be absorbed back to the stored value.
    #[test]
    fn every_single_bit_flip_of_an_envelope_is_rejected() {
        for (rows, cols, seed) in [(2usize, 12usize, 18u64), (3, 24, 19)] {
            let good = shard_to_bytes(&sample_packed(rows, cols, seed), &sample_header());
            for idx in 0..good.len() {
                for bit in 0..8 {
                    let mut bad = good.clone();
                    bad[idx] ^= 1 << bit;
                    let err = shard_from_bytes(&bad).expect_err("a flipped bit must not decode");
                    let ok = match idx {
                        0..=3 => err == DecodeError::BadMagic,
                        4..=5 => matches!(err, DecodeError::BadVersion(v) if v != SHARD_VERSION),
                        _ => err == DecodeError::BadChecksum,
                    };
                    assert!(ok, "{rows}x{cols} byte {idx} bit {bit}: {err:?}");
                }
            }
        }
    }

    #[test]
    fn shard_rejects_impossible_index_and_range() {
        let m = sample_packed(4, 24, 14);
        let bytes = shard_to_bytes(&m, &sample_header());
        // shard_index >= n_shards (checksum refixed so the range check,
        // not the corruption check, is what rejects).
        let mut wrong = bytes.clone();
        wrong[6..8].copy_from_slice(&9u16.to_le_bytes());
        refix_checksum(&mut wrong);
        assert_eq!(shard_from_bytes(&wrong).unwrap_err(), DecodeError::BadRange);
        // Row range no longer fits the declared site: 4 rows at start 2
        // need total_rows >= 6.
        let mut wrong = bytes.clone();
        wrong[18..22].copy_from_slice(&5u32.to_le_bytes());
        refix_checksum(&mut wrong);
        assert_eq!(shard_from_bytes(&wrong).unwrap_err(), DecodeError::BadRange);
        assert_eq!(shard_from_bytes(&bytes[..10]).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    #[should_panic(expected = "exceed the site")]
    fn shard_encoder_rejects_inconsistent_header() {
        let m = sample_packed(8, 24, 15);
        let _ = shard_to_bytes(&m, &sample_header()); // 8 rows at start 2 > 9 total
    }

    #[test]
    fn every_header_field_mutation_is_rejected_never_silent() {
        // Seeded-random mutations aimed at the envelope's header fields
        // specifically: every field, mutated independently (checksum both
        // stale and refixed), must yield a typed error — never a decode
        // that silently routes the slice elsewhere.
        let m = sample_packed(4, 47, 16);
        let bytes = shard_to_bytes(&m, &sample_header());
        // (field name, byte range in the header)
        let fields: [(&str, std::ops::Range<usize>); 7] = [
            ("magic", 0..4),
            ("version", 4..6),
            ("shard_index", 6..8),
            ("n_shards", 8..10),
            ("site_id", 10..14),
            ("row_start", 14..18),
            ("total_rows", 18..22),
            // checksum (22..26) is exercised separately below: flipping it
            // alone must fail against the intact payload.
        ];
        let mut rng = Rng::seed_from(0xAEAD);
        for trial in 0..800 {
            let (name, range) = &fields[rng.below(fields.len())];
            let mut mutated = bytes.clone();
            let i = range.start + rng.below(range.end - range.start);
            let flip = 1u8 << rng.below(8);
            mutated[i] ^= flip;
            // Stale checksum: any header flip must be caught — by magic or
            // version first, by the checksum otherwise.
            let stale = shard_from_bytes(&mutated).expect_err("stale header flip must error");
            match *name {
                "magic" => assert_eq!(stale, DecodeError::BadMagic, "trial {trial}"),
                "version" => {
                    assert!(matches!(stale, DecodeError::BadVersion(_)), "trial {trial}")
                }
                _ => assert_eq!(stale, DecodeError::BadChecksum, "trial {trial} {name} byte {i}"),
            }
            // Refixed checksum: the corrupted field now *is* the message,
            // so decoding must still never silently succeed with different
            // routing — any field change is either rejected (BadRange /
            // BadVersion / BadMagic) or decodes to exactly the mutated
            // header (shard_index within range, site_id, larger
            // total_rows: legitimate alternative routings the checksum
            // exists to protect in transit, not at rest).
            refix_checksum(&mut mutated);
            match shard_from_bytes(&mutated) {
                Err(
                    DecodeError::BadMagic
                    | DecodeError::BadVersion(_)
                    | DecodeError::BadRange
                    | DecodeError::Truncated,
                ) => {}
                Err(e) => panic!("trial {trial} {name}: unexpected error {e}"),
                Ok((header, back)) => {
                    assert_eq!(back, m, "trial {trial} {name}: payload must be untouched");
                    assert_eq!(
                        shard_to_bytes(&back, &header),
                        mutated,
                        "trial {trial} {name}: decode must round-trip the mutated bytes exactly"
                    );
                }
            }
        }
        // The checksum field itself, flipped against an intact payload.
        let mut rng = Rng::seed_from(77);
        for _ in 0..64 {
            let mut mutated = bytes.clone();
            mutated[22 + rng.below(4)] ^= 1 << rng.below(8);
            assert_eq!(shard_from_bytes(&mutated).unwrap_err(), DecodeError::BadChecksum);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_rejected() {
        // Both formats, cut after every possible prefix length (and the
        // empty input): always a typed error, never a panic or a silent
        // partial decode.
        let m = sample_packed(3, 29, 17);
        let plain = to_bytes(&m);
        for len in 0..plain.len() {
            assert_eq!(
                from_bytes(&plain[..len]).unwrap_err(),
                DecodeError::Truncated,
                "matrix blob cut at {len}"
            );
        }
        let wire = shard_to_bytes(&m, &sample_header());
        for len in 0..wire.len() {
            let err = shard_from_bytes(&wire[..len]).unwrap_err();
            // Short of the header it is Truncated outright; past the
            // header a cut payload breaks the checksum first.
            let expect = if len < SHARD_HEADER_BYTES {
                DecodeError::Truncated
            } else {
                DecodeError::BadChecksum
            };
            assert_eq!(err, expect, "shard envelope cut at {len}");
        }
    }
}
