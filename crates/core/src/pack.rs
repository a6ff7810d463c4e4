//! Bit-exact packed storage format (Fig. 4 step 5 of the paper).
//!
//! Clusters are stored eight at a time in 7-byte blocks:
//!
//! ```text
//! byte 0        : index byte — four 2-bit codes, one per cluster *pair*
//!                 (pair p occupies bits [2p, 2p+2), LSB first)
//! bytes 1..=6   : 48 data bits — cluster k occupies bits [6k, 6k+6)
//! ```
//!
//! Within a cluster's 6 data bits:
//!
//! * normal layout (`00`): three 2-bit sign-magnitude fields
//!   (`bit0 = magnitude`, `bit1 = sign`), positions in order;
//! * outlier layouts: two 3-bit sign-magnitude fields
//!   (`bits 0..2 = magnitude`, `bit2 = sign`) for the two stored
//!   positions, in order — the sacrificed position is implicit in the code.
//!
//! 7 bytes per 24 weights is exactly **2⅓ bits per weight**, the number the
//! paper reports, and every block starts on a byte boundary (the paper's
//! "aligned memory access").
//!
//! A [`PackedMatrix`] is held as its wire body: each row's two scales and
//! blocks, back to back at one fixed stride, in one buffer — the bytes
//! [`crate::serialize`] ships after its header, so parsing is one copy.
//! A [`PackedChannel`] is a `Copy` view of one row.
//!
//! This module is the one place that knows the cluster bit layout in both
//! directions: the encoder (the row writer behind the quantizer and
//! [`PackedMatrix::pack_channel`]) and [`DECODE_INTS`], the table every
//! per-cluster software reader goes through ([`PackedChannel::code_of`],
//! [`PackedChannel::cluster_ints`], the kernels' live-cluster walk). The
//! only other software reader is the SWAR whole-block decode in
//! [`crate::kernels`], used where all 24 lanes of a block are wanted
//! (`dequantize`, `dequantize_into`) and checked exhaustively against the
//! table. The same bytes are consumed by the hardware decoder model in
//! `fineq-accel`, which re-implements the Fig. 6 MUX datapath on this
//! layout independently and is checked exhaustively against the table too.

use crate::encoding::ClusterCode;

/// Number of clusters per packed block.
pub const CLUSTERS_PER_BLOCK: usize = 8;
/// Bytes per packed block (1 index byte + 6 data bytes).
pub const BLOCK_BYTES: usize = 7;
/// Weights covered by one packed block (8 clusters × 3 lanes) — the unit
/// the kernels' full-block fast path advances by.
pub const WEIGHTS_PER_BLOCK: usize = CLUSTERS_PER_BLOCK * 3;
/// Data bits per cluster (three 2-bit or two 3-bit sign-magnitude fields).
pub const CLUSTER_DATA_BITS: usize = 6;
/// Data bytes per block (the 48-bit word after the index byte).
pub const BLOCK_DATA_BYTES: usize = BLOCK_BYTES - 1;
/// Bits of the per-pair cluster code in the index byte.
pub const CODE_BITS: usize = 2;

/// The index byte of a 7-byte block: four 2-bit pair codes, LSB first.
///
/// # Panics
///
/// Debug-asserts that `block` is exactly [`BLOCK_BYTES`] long.
#[inline(always)]
pub fn block_index_byte(block: &[u8]) -> u8 {
    debug_assert_eq!(block.len(), BLOCK_BYTES);
    block[0]
}

/// The 48-bit data word of a 7-byte block as one little-endian `u64`:
/// cluster `k` occupies bits `[6k, 6k + 6)` — the word the SWAR decoder
/// consumes whole.
///
/// # Panics
///
/// Debug-asserts that `block` is exactly [`BLOCK_BYTES`] long.
#[inline(always)]
pub fn block_data_word(block: &[u8]) -> u64 {
    debug_assert_eq!(block.len(), BLOCK_BYTES);
    let mut data = 0u64;
    let mut i = 0;
    while i < BLOCK_DATA_BYTES {
        data |= (block[1 + i] as u64) << (8 * i);
        i += 1;
    }
    data
}

/// Encodes a signed value into an `n`-bit sign-magnitude field
/// (`n - 1` magnitude bits, sign in the top bit). Negative zero is
/// normalized to `+0`.
#[inline]
fn to_sign_mag(q: i32, bits: u32) -> u32 {
    let mag_bits = bits - 1;
    let max_mag = (1u32 << mag_bits) - 1;
    let mag = q.unsigned_abs().min(max_mag);
    let sign = u32::from(q < 0 && mag != 0);
    (sign << mag_bits) | mag
}

/// A cluster's 6 data bits under the 2-bit wire `code`: the normal layout
/// stores the 2-bit ints `q2`, an outlier layout the 3-bit ints `q3` of
/// the two positions it keeps, in order. Selects, not branches, so the
/// quantizer's loop over a channel's clusters vectorizes.
#[inline]
pub(crate) fn pack_cluster(q2: [i32; 3], q3: [i32; 3], code: u8) -> u8 {
    let [a, b, c] = q2.map(|q| to_sign_mag(q, 2));
    let [x, y, z] = q3.map(|q| to_sign_mag(q, 3));
    let first = if code == ClusterCode::ZeroFirst.bits() { y } else { x };
    let second = if code == ClusterCode::ZeroThird.bits() { y } else { z };
    let six = if code == ClusterCode::AllTwoBit.bits() {
        a | (b << 2) | (c << 4)
    } else {
        first | (second << 3)
    };
    six as u8
}

/// Decodes an `n`-bit sign-magnitude field in a `const` context.
const fn sign_mag_const(field: u8, bits: u32) -> i8 {
    let mag_bits = bits - 1;
    let mag = (field as u32 & ((1 << mag_bits) - 1)) as i8;
    if (field as u32 >> mag_bits) & 1 == 1 {
        -mag
    } else {
        mag
    }
}

/// Decodes one cluster's 6 data bits under a 2-bit code in a `const`
/// context — the inverse of `pack_cluster`, and the builder of
/// [`DECODE_INTS`].
const fn decode_cluster_const(code: u8, six: u8) -> [i8; 3] {
    match code {
        0b00 => [
            sign_mag_const(six & 0b11, 2),
            sign_mag_const((six >> 2) & 0b11, 2),
            sign_mag_const((six >> 4) & 0b11, 2),
        ],
        0b01 => [0, sign_mag_const(six & 0b111, 3), sign_mag_const((six >> 3) & 0b111, 3)],
        0b10 => [sign_mag_const(six & 0b111, 3), 0, sign_mag_const((six >> 3) & 0b111, 3)],
        _ => [sign_mag_const(six & 0b111, 3), sign_mag_const((six >> 3) & 0b111, 3), 0],
    }
}

/// Full decode table: `DECODE_INTS[code][six]` is the signed integer
/// triple of a cluster whose index bits are `code` and data bits `six`.
///
/// This is the single source of truth for the wire format's value
/// semantics; the `fineq-accel` hardware decoder model re-derives the same
/// mapping through its Fig. 6 MUX network and is tested against this table.
pub const DECODE_INTS: [[[i8; 3]; 64]; 4] = {
    let mut table = [[[0i8; 3]; 64]; 4];
    let mut code = 0usize;
    while code < 4 {
        let mut six = 0usize;
        while six < 64 {
            table[code][six] = decode_cluster_const(code as u8, six as u8);
            six += 1;
        }
        code += 1;
    }
    table
};

/// Bytes of a row's two Eq. 1 scales (`scale2`, `scale3`: LE `f32`).
pub const SCALE_BYTES: usize = 8;

/// Bytes of a `len`-weight channel's row of a body: the scales, then
/// `ceil(ceil(len / 3) / 8)` blocks.
pub(crate) fn channel_stride(len: usize) -> usize {
    SCALE_BYTES + len.div_ceil(3).div_ceil(CLUSTERS_PER_BLOCK) * BLOCK_BYTES
}

/// Writes every byte of a `len`-weight channel's row of a body: the two
/// scales, then the blocks assembled from pair `p`'s 2-bit code `code(p)`
/// and cluster `k`'s 6 data bits `six(k)`.
pub(crate) fn write_channel(
    row: &mut [u8],
    scale2: f32,
    scale3: f32,
    len: usize,
    code: impl Fn(usize) -> u8,
    six: impl Fn(usize) -> u8,
) {
    let n_clusters = len.div_ceil(3);
    let n_pairs = n_clusters.div_ceil(2);
    let (scales, blocks) = row.split_at_mut(SCALE_BYTES);
    scales[..4].copy_from_slice(&scale2.to_le_bytes());
    scales[4..].copy_from_slice(&scale3.to_le_bytes());
    for (b, block) in blocks.chunks_exact_mut(BLOCK_BYTES).enumerate() {
        let (first_pair, first) = (b * CLUSTERS_PER_BLOCK / 2, b * CLUSTERS_PER_BLOCK);
        let mut idx = 0u8;
        for i in 0..(CLUSTERS_PER_BLOCK / 2).min(n_pairs - first_pair) {
            idx |= code(first_pair + i) << (CODE_BITS * i);
        }
        let mut data = 0u64;
        for j in 0..CLUSTERS_PER_BLOCK.min(n_clusters - first) {
            data |= u64::from(six(first + j)) << (CLUSTER_DATA_BITS * j);
        }
        block[0] = idx;
        block[1..].copy_from_slice(&data.to_le_bytes()[..BLOCK_DATA_BYTES]);
    }
}

/// One packed weight channel: a `Copy` view of its row of a
/// [`PackedMatrix`] body — two fp16-accounted Eq. 1 scales plus the 7-byte
/// cluster blocks. Equality is byte equality, like the matrix's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedChannel<'a> {
    len: usize,
    /// The row: [`SCALE_BYTES`] of scales, then the blocks.
    bytes: &'a [u8],
}

impl<'a> PackedChannel<'a> {
    /// Eq. 1 scale for 2-bit fields (`absmax / 1`).
    pub fn scale2(&self) -> f32 {
        f32::from_le_bytes(self.bytes[..4].try_into().expect("4 bytes"))
    }

    /// Eq. 1 scale for 3-bit fields (`absmax / 3`).
    pub fn scale3(&self) -> f32 {
        f32::from_le_bytes(self.bytes[4..SCALE_BYTES].try_into().expect("4 bytes"))
    }

    /// Logical (unpadded) number of weights in the channel.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored clusters (including a zero-padded tail cluster).
    pub fn n_clusters(&self) -> usize {
        self.len.div_ceil(3)
    }

    /// The raw packed bytes (`n_blocks * 7`), exactly what the accelerator's
    /// weight buffer would hold.
    pub fn blocks(&self) -> &'a [u8] {
        &self.bytes[SCALE_BYTES..]
    }

    /// The code governing cluster `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_clusters()`.
    pub fn code_of(&self, k: usize) -> ClusterCode {
        assert!(k < self.n_clusters(), "cluster {k} out of range");
        let pair = k / 2;
        let idx = self.blocks()[pair / 4 * BLOCK_BYTES];
        ClusterCode::from_bits((idx >> (CODE_BITS * (pair % 4))) & 0b11)
    }

    /// The three integer codes of cluster `k` (zeroed position reads 0).
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_clusters()`.
    pub fn cluster_ints(&self, k: usize) -> [i32; 3] {
        let code = self.code_of(k);
        let base = k / CLUSTERS_PER_BLOCK * BLOCK_BYTES;
        let data = block_data_word(&self.blocks()[base..base + BLOCK_BYTES]);
        let six = (data >> (CLUSTER_DATA_BITS * (k % CLUSTERS_PER_BLOCK))) & 0x3F;
        DECODE_INTS[code.bits() as usize][six as usize].map(i32::from)
    }

    /// Storage bytes of the packed blocks.
    pub fn data_bytes(&self) -> usize {
        self.bytes.len() - SCALE_BYTES
    }
}

/// The channels of a matrix in row order: an iterator of [`PackedChannel`]
/// views that clones in O(1), [`Channels::iter`] being that clone.
#[derive(Debug, Clone)]
pub struct Channels<'a> {
    len: usize,
    rows: std::slice::ChunksExact<'a, u8>,
}

impl Channels<'_> {
    /// A fresh iterator over the same channels.
    pub fn iter(&self) -> Self {
        self.clone()
    }
}

impl<'a> Iterator for Channels<'a> {
    type Item = PackedChannel<'a>;

    fn next(&mut self) -> Option<PackedChannel<'a>> {
        self.rows.next().map(|bytes| PackedChannel { len: self.len, bytes })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Channels<'_> {}

/// A fully packed weight matrix, held as its wire body: for each row,
/// `scale2` and `scale3` as little-endian `f32`, then the row's 7-byte
/// blocks — byte for byte what [`crate::serialize::to_bytes`] writes after
/// its 12-byte header. Every row has the same stride, so a channel is a
/// view ([`PackedMatrix::channel`]) and no channel owns an allocation.
///
/// Equality is byte equality of `(rows, cols, body)`: a scale of `-0.0`
/// differs from `+0.0`, and a NaN scale equals the same NaN bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    body: Vec<u8>,
}

impl PackedMatrix {
    /// A matrix over its body (see the type docs for the layout).
    ///
    /// # Panics
    ///
    /// Panics unless `body` holds exactly `rows` channels of `cols`
    /// weights.
    pub fn from_body(rows: usize, cols: usize, body: Vec<u8>) -> Self {
        let stride = channel_stride(cols);
        assert_eq!(Some(body.len()), rows.checked_mul(stride), "body must hold rows x stride");
        Self { rows, cols, body }
    }

    /// A one-row matrix packed from its final per-pair codes and
    /// per-cluster integer values; `codes[p]` applies to clusters `2p` and
    /// `2p + 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `quantized` holds exactly the `ceil(len / 3)` clusters
    /// of a `len`-weight channel and `codes` covers every cluster pair.
    pub fn pack_channel(
        scale2: f32,
        scale3: f32,
        len: usize,
        codes: &[ClusterCode],
        quantized: &[[i32; 3]],
    ) -> Self {
        let n_clusters = quantized.len();
        assert_eq!(n_clusters, len.div_ceil(3), "one cluster per three weights required");
        assert_eq!(codes.len(), n_clusters.div_ceil(2), "one code per cluster pair required");
        let mut body = vec![0; channel_stride(len)];
        write_channel(
            &mut body,
            scale2,
            scale3,
            len,
            |p| codes[p].bits(),
            |k| pack_cluster(quantized[k], quantized[k], codes[k / 2].bits()),
        );
        Self { rows: 1, cols: len, body }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (weights per channel).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The body: every row's scales and blocks, back to back.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The packed channels, as views.
    pub fn channels(&self) -> Channels<'_> {
        self.channel_range(0, self.rows)
    }

    /// Channels `start..end`, as views.
    pub(crate) fn channel_range(&self, start: usize, end: usize) -> Channels<'_> {
        let stride = channel_stride(self.cols);
        let rows = self.body[start * stride..end * stride].chunks_exact(stride);
        Channels { len: self.cols, rows }
    }

    /// Channel `r`, as a view.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn channel(&self, r: usize) -> PackedChannel<'_> {
        assert!(r < self.rows, "channel {r} out of range");
        self.channel_range(r, r + 1).next().expect("one channel")
    }

    /// A new matrix holding a copy of rows `start..end` of the body — the
    /// row shard a worker serves. Channel bytes and scales are copied
    /// verbatim, so every per-channel kernel result computed from a slice
    /// is bit-identical to computing the same channel in the source
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, reversed, or out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> PackedMatrix {
        assert!(start < end && end <= self.rows, "invalid row slice {start}..{end}");
        let stride = channel_stride(self.cols);
        let body = self.body[start * stride..end * stride].to_vec();
        PackedMatrix { rows: end - start, cols: self.cols, body }
    }

    /// Data-only storage cost in bits per weight (the paper's 2.33 for
    /// matrices whose rows are multiples of 24).
    pub fn avg_bits_data(&self) -> f64 {
        let bytes = self.rows * (channel_stride(self.cols) - SCALE_BYTES);
        (bytes * 8) as f64 / (self.rows * self.cols).max(1) as f64
    }

    /// Total storage cost including the two fp16 Eq. 1 scales per channel.
    pub fn avg_bits_total(&self) -> f64 {
        let scale_bits = (self.rows * 2 * 16) as f64;
        self.avg_bits_data() + scale_bits / (self.rows * self.cols).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_normalizes_to_plus_zero() {
        assert_eq!(to_sign_mag(0, 3), 0);
        assert_eq!(to_sign_mag(-0, 3), 0);
    }

    #[test]
    fn sign_magnitude_clamps_overlarge_magnitudes() {
        assert_eq!(to_sign_mag(9, 3), 0b011);
        assert_eq!(to_sign_mag(-9, 3), 0b111);
    }

    #[test]
    fn decode_table_inverts_pack_cluster_exhaustively() {
        for code in ClusterCode::ALL {
            let table = &DECODE_INTS[code.bits() as usize];
            // Every in-range integer triple survives pack -> table.
            let qmax = if code.is_outlier() { 3 } else { 1 };
            for a in -qmax..=qmax {
                for b in -qmax..=qmax {
                    for c in -qmax..=qmax {
                        let mut q = [a, b, c];
                        if let Some(z) = code.zeroed_position() {
                            q[z] = 0;
                        }
                        let six = pack_cluster(q, q, code.bits());
                        assert!(six < 64, "6 bits only");
                        assert_eq!(table[six as usize].map(i32::from), q, "{code} {q:?}");
                    }
                }
            }
            // Every bit pattern decodes to integers that pack back to the
            // same integers (negative-zero fields normalize to +0).
            for (six, ints) in table.iter().enumerate() {
                let ints32 = ints.map(i32::from);
                let again = pack_cluster(ints32, ints32, code.bits());
                assert_eq!(&table[again as usize], ints, "{code} six {six:06b}");
            }
        }
    }

    fn demo_channel() -> PackedMatrix {
        // 5 clusters (15 weights), mixed codes: pairs (00, 10, 11-single).
        let codes = [ClusterCode::AllTwoBit, ClusterCode::ZeroSecond, ClusterCode::ZeroThird];
        let q = [[1, -1, 0], [0, 1, 1], [3, 0, -2], [-3, 0, 1], [2, -2, 0]];
        PackedMatrix::pack_channel(0.3, 0.1, 15, &codes, &q)
    }

    /// The one-row matrices `parts`, stacked in order.
    fn stack(parts: &[PackedMatrix]) -> PackedMatrix {
        let body = parts.iter().flat_map(|m| m.body()).copied().collect();
        PackedMatrix::from_body(parts.len(), parts[0].cols(), body)
    }

    #[test]
    fn block_layout_is_seven_bytes_per_eight_clusters() {
        let m = demo_channel();
        let ch = m.channel(0);
        assert_eq!(ch.n_clusters(), 5);
        assert_eq!(ch.data_bytes(), BLOCK_BYTES); // 5 clusters fit one block
        let m2 = PackedMatrix::pack_channel(
            1.0,
            1.0 / 3.0,
            27,
            &[ClusterCode::AllTwoBit; 5],
            &[[0, 0, 0]; 9],
        );
        assert_eq!(m2.channel(0).data_bytes(), 2 * BLOCK_BYTES); // 9 clusters -> 2 blocks
    }

    #[test]
    fn block_word_accessors_mirror_the_layout() {
        let m = demo_channel();
        let ch = m.channel(0);
        let block = &ch.blocks()[0..BLOCK_BYTES];
        assert_eq!(block_index_byte(block), block[0]);
        let data = block_data_word(block);
        // Reassembling the word byte by byte must reproduce bytes 1..=6.
        for (i, &b) in block[1..].iter().enumerate() {
            assert_eq!(((data >> (8 * i)) & 0xFF) as u8, b, "data byte {i}");
        }
        assert_eq!(data >> (CLUSTER_DATA_BITS * CLUSTERS_PER_BLOCK), 0, "48 bits only");
        // Cluster k's six bits land at [6k, 6k + 6).
        for k in 0..ch.n_clusters() {
            let six = ((data >> (CLUSTER_DATA_BITS * k)) & 0x3F) as usize;
            let ints = DECODE_INTS[ch.code_of(k).bits() as usize][six].map(i32::from);
            assert_eq!(ints, ch.cluster_ints(k), "cluster {k}");
        }
    }

    #[test]
    fn code_of_reads_back_pair_codes() {
        let m = demo_channel();
        let ch = m.channel(0);
        assert_eq!(ch.code_of(0), ClusterCode::AllTwoBit);
        assert_eq!(ch.code_of(1), ClusterCode::AllTwoBit);
        assert_eq!(ch.code_of(2), ClusterCode::ZeroSecond);
        assert_eq!(ch.code_of(3), ClusterCode::ZeroSecond);
        assert_eq!(ch.code_of(4), ClusterCode::ZeroThird);
    }

    #[test]
    fn cluster_ints_read_back_quantized_values() {
        let m = demo_channel();
        let ch = m.channel(0);
        assert_eq!(ch.cluster_ints(0), [1, -1, 0]);
        assert_eq!(ch.cluster_ints(2), [3, 0, -2]);
        assert_eq!(ch.cluster_ints(4), [2, -2, 0]);
    }

    #[test]
    fn dequantize_applies_correct_scales() {
        let m = demo_channel();
        let dq = m.channel(0).dequantize();
        assert_eq!(dq.len(), 15);
        // Cluster 0 (code 00, scale2 = 0.3): [0.3, -0.3, 0].
        assert!((dq[0] - 0.3).abs() < 1e-6);
        assert!((dq[1] + 0.3).abs() < 1e-6);
        assert_eq!(dq[2], 0.0);
        // Cluster 2 (code 10, scale3 = 0.1): [0.3, 0, -0.2].
        assert!((dq[6] - 0.3).abs() < 1e-6);
        assert_eq!(dq[7], 0.0);
        assert!((dq[8] + 0.2).abs() < 1e-6);
    }

    #[test]
    fn packed_matrix_avg_bits_is_seven_thirds_for_aligned_shapes() {
        // 24 weights per row -> exactly one block per row -> 56/24 bits.
        let codes = vec![ClusterCode::AllTwoBit; 4];
        let q = vec![[0i32, 0, 0]; 8];
        let ch = PackedMatrix::pack_channel(1.0, 1.0 / 3.0, 24, &codes, &q);
        let m = stack(&[ch.clone(), ch]);
        assert!((m.avg_bits_data() - 7.0 / 3.0).abs() < 1e-12);
        assert!(m.avg_bits_total() > m.avg_bits_data());
    }

    #[test]
    fn slice_rows_copies_channels_verbatim() {
        let codes = vec![ClusterCode::AllTwoBit; 4];
        let q = vec![[1i32, -1, 0]; 8];
        let ch = |s2: f32| PackedMatrix::pack_channel(s2, s2 / 3.0, 24, &codes, &q);
        let m = stack(&[ch(0.3), ch(0.6), ch(0.9)]);
        let s = m.slice_rows(1, 3);
        assert_eq!((s.rows(), s.cols()), (2, 24));
        assert_eq!(s.channels().collect::<Vec<_>>(), m.channels().skip(1).collect::<Vec<_>>());
        assert_eq!(s.dequantize().row(0), m.dequantize().row(1));
    }

    #[test]
    #[should_panic(expected = "invalid row slice")]
    fn empty_row_slice_is_rejected() {
        let codes = vec![ClusterCode::AllTwoBit; 4];
        let q = vec![[0i32, 0, 0]; 8];
        let m = PackedMatrix::pack_channel(1.0, 1.0 / 3.0, 24, &codes, &q);
        let _ = m.slice_rows(1, 1);
    }

    #[test]
    #[should_panic(expected = "one code per cluster pair")]
    fn pack_rejects_missing_codes() {
        let _ = PackedMatrix::pack_channel(1.0, 0.3, 9, &[ClusterCode::AllTwoBit], &[[0, 0, 0]; 3]);
    }

    #[test]
    #[should_panic(expected = "one cluster per three weights")]
    fn pack_rejects_a_cluster_count_that_disagrees_with_len() {
        // 30 weights need 10 clusters; with 2 the readers used to disagree
        // (`dot` summed 6 lanes, `dequantize_into` left `out[24..30]` stale).
        let _ =
            PackedMatrix::pack_channel(1.0, 0.3, 30, &[ClusterCode::AllTwoBit], &[[0, 0, 0]; 2]);
    }

    #[test]
    fn empty_channel_packs_to_nothing() {
        let m = PackedMatrix::pack_channel(0.0, 0.0, 0, &[], &[]);
        let ch = m.channel(0);
        assert!(ch.is_empty());
        assert_eq!(ch.data_bytes(), 0);
        assert!(ch.dequantize().is_empty());
    }
}
