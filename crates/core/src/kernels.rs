//! Fused packed-weight kernels: GEMV/GEMM straight from the 7-byte blocks.
//!
//! The serving path the paper argues for never materializes a dequantized
//! weight matrix: the accelerator streams 7-byte blocks (1 index byte + 6
//! data bytes per 8 clusters) and multiplies decoded integer lanes into two
//! per-channel accumulators, one per scale class, combined once per channel
//! as `s2·acc2 + s3·acc3`. Its temporal array spends cycles in proportion
//! to a weight's magnitude — a zero lane emits no pulse. These kernels are
//! the software mirror of both halves: the packed stream is the only
//! representation (2.33 bits of weight traffic per weight, no side table,
//! no load-time cache), and the cost of a pass is per **live** lane, not
//! per stored lane.
//!
//! * **One accumulate loop.** The private const-generic `walk::<N>` is the
//!   body of every kernel: [`PackedChannel::dot`] is `N = 1`, the batched
//!   GEMM ([`PackedMatrix::matmul_t_into_with`]) and through it the remote
//!   worker run `N ∈ {1, 4, 8, 16}` over activations restaged column-major
//!   in panels of at most 16 rows, zero-padded to the tile — any batch of
//!   1–16 rows is one pass over the stream, each further 16 rows one more.
//!   The panel layout and the tile dispatch are [`fineq_tensor::panel`]'s,
//!   shared with the dense `Matrix::matmul_transpose` (the fp32 head). Per
//!   block it derives a *live-cluster* mask from the raw index byte and
//!   48-bit data word in about ten register ops (a field is dead iff its
//!   magnitude bits are clear), then visits only the set bits: one
//!   [`DECODE_INTS`] lookup per live cluster, the accumulator chosen once
//!   per cluster (a cluster is single-class), the sacrificed lane skipped
//!   by position, the accumulators `[f32; N]` locals that stay in
//!   registers.
//! * **Why.** On the model every `BENCHMARK.json` workload serves, 0.2 % of
//!   the 1 081 344 stored lanes are live 2-bit lanes, 8.4 % live 3-bit
//!   lanes, and 22 % of clusters hold any nonzero lane (pinned by
//!   `gate_model_lane_census_is_on_record` in `tests/packed_engine.rs`).
//!   The kernels this walk replaced decoded and visited every lane: one
//!   pass over the twelve sites cost ≈ 2.2 ms at batch 1 and ≈ 2.4 ms at
//!   batch 16 (`kernels.sites_us_b1` / `_b16`, 2-vCPU Firecracker guest —
//!   the one host class ever recorded); the walk costs ≈ 0.68 ms and
//!   ≈ 0.91 ms, of which ≈ 0.2 ms is the scan that finds the dead blocks
//!   dead. It is not fitted to that census: with *every* lane live it is
//!   still faster than the full-block kernels at 1, 10, 16 and 32 rows
//!   (`matmul_t` rows of `cargo bench -p fineq-bench --bench kernels`).
//!   What a whole step costs, and how much of it attention takes as the
//!   context grows, are the `-- forward` and `-- attention` rows of the
//!   same bench.
//! * **Bit identity.** For any fixed activation column the float sequence
//!   is the same at every `N`, thread count and shard count: each
//!   accumulator receives its live lanes in index order, mul then add.
//!   Omitting a dead lane's `±0.0` term changes no bit (see `walk`), so
//!   every golden that held under the lane-by-lane kernels still holds.
//! * **Two decoders, chosen by what the operation needs.** An operation
//!   that wants only the live clusters reads them through the
//!   [`DECODE_INTS`] table (the walk above; [`PackedChannel::code_of`] and
//!   [`PackedChannel::cluster_ints`] in `pack.rs`). An operation that wants
//!   all 24 lanes of a block reads it through **SWAR**
//!   ([`decode_block_swar`]: one pass of register-wide shifts and masks,
//!   the software form of the paper's Fig. 6 parallel MUX decode):
//!   [`PackedChannel::dequantize_into`], with
//!   [`PackedChannel::dequantize`] / [`PackedMatrix::dequantize`] its
//!   allocating wrappers, and the public block decoder itself. The partial
//!   tail block is decoded whole and its in-bounds prefix kept. There is no
//!   third software reader: SWAR is checked exhaustively over `code × six`
//!   against the table, and the table against `pack_cluster` and the
//!   independent `fineq-accel` MUX model. On a 64×1536 matrix
//!   (`cargo bench -p fineq-bench --bench kernels`, 2-vCPU guest)
//!   `dequantize_into` reads 79–84 µs and `dequantize()` 90–98 µs (the
//!   allocation); a table-only `dequantize_into` was sized at 94–116 µs
//!   against SWAR's 78–84 µs, which is why the table does not serve the
//!   all-lanes case too.
//!
//! Channels are independent, so the matrix-level kernels
//! ([`PackedMatrix::matvec_into`], [`PackedMatrix::matmul_t_into_with`])
//! are one private channel loop over one matrix, channel `r` writing
//! output column `r`, its channel range optionally distributed over a
//! [`ThreadPool`]: GEMV is its one-row case. Each channel's accumulation
//! order is untouched by the distribution, so parallel output is
//! **bit-identical to the serial path at any thread count** — the
//! invariant the batched serving engine's composition guarantee rests on.
//! A channel also computes the same bits in any matrix that holds it, so
//! a row shard of a site needs no kernel of its own.
//! [`KernelScratch`] lets a caller reuse the restaging buffer across calls
//! (e.g. across a transformer's layers).

use crate::pack::{
    block_data_word, block_index_byte, PackedChannel, PackedMatrix, BLOCK_BYTES,
    CLUSTERS_PER_BLOCK, CLUSTER_DATA_BITS, CODE_BITS, DECODE_INTS, WEIGHTS_PER_BLOCK,
};
use crate::pool::ThreadPool;
use fineq_tensor::panel::{for_each_row, restage_columns, PanelKernel};
use fineq_tensor::Matrix;

// The walk's widest tile; the serving scheduler fills a step's last panel.
pub use fineq_tensor::panel::MAX_TILE;

// ---- SWAR wide-word block decode -----------------------------------------
//
// The software mirror of the paper's Fig. 6 *parallel* decode: all eight
// clusters of a block resolve from the 48-bit data word in one pass of
// register-wide shifts and masks (SIMD-within-a-register on `u64` byte
// lanes), with the scale-class split selected per cluster from the index
// byte — no per-cluster table lookups when a caller wants all 24 lanes
// ([`PackedChannel::dequantize_into`], [`decode_block_swar`]; the
// accumulate kernels never do — see the lane walk below). std-only by
// design: this workspace builds without crates.io (and therefore without
// portable-SIMD or intrinsics shims), and SWAR on `u64` gives wide,
// branch-free unpacking on any target.
//
// Every step operates on one byte lane per cluster. Borrow isolation uses
// the guarded-subtraction SWAR identity, specialized to subtrahends whose
// bytes never exceed 0x7F (field magnitudes never exceed 3), which cuts
// the general 5-op per-byte subtract down to 2 ops — the decode runs a
// strict op budget because it competes with a plain L1 table load.

/// `0x01` in every byte lane.
const SWAR_ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte lane (the per-byte borrow guard).
const SWAR_HI: u64 = 0x8080_8080_8080_8080;
/// `0x03` in every byte lane (the 3-bit field magnitude mask).
const SWAR_MAG2: u64 = 0x0303_0303_0303_0303;

/// Per-byte negation of a word whose bytes are all `<= 0x7F`: byte `b`
/// becomes `-b` mod 256 (the `i8` two's-complement encoding). `0x80 - b`
/// can never borrow out of its byte, and the XOR strips the guard bit
/// back off — the specialized 2-op form of guarded SWAR subtraction.
#[inline(always)]
const fn swar_neg_bytes(y: u64) -> u64 {
    (SWAR_HI - y) ^ SWAR_HI
}

/// Expands per-byte 0/1 indicators into per-byte 0x00/0xFF masks
/// (`-1 = 0xFF`).
#[inline(always)]
const fn swar_mask(indicator: u64) -> u64 {
    swar_neg_bytes(indicator)
}

/// Per-byte sign-magnitude decode: each byte becomes `mag` where its sign
/// indicator is 0 and `-mag` (two's complement, i.e. the `i8` encoding)
/// where it is 1. `-0` decodes to `0`, matching the scalar field decoder.
#[inline(always)]
const fn swar_sign_apply(mag: u64, sign: u64) -> u64 {
    let smask = swar_mask(sign);
    (mag & !smask) | (swar_neg_bytes(mag) & smask)
}

/// Spreads four 6-bit clusters (packed in the low 24 bits) into four byte
/// lanes, low 6 bits of each byte.
#[inline(always)]
const fn swar_spread4(x: u64) -> u64 {
    (x & 0x3F) | ((x & 0x0FC0) << 2) | ((x & 0x3_F000) << 4) | ((x & 0xFC_0000) << 6)
}

/// The raw SWAR decode of one block: six `u64` words, each holding one
/// lane position's value for all eight clusters (byte lane `k` of
/// `two[j]` / `three[j]` is cluster `k`'s lane `j` as an `i8`, split by
/// scale class). [`DecodedBlockBytes`] stages this form as plain bytes;
/// [`decode_block_swar`] is the lane-ordered public view.
///
/// The pass: spread the 48-bit word into one byte lane per cluster, decode
/// **both** field interpretations of every cluster at once (three 2-bit
/// sign-magnitude fields and two 3-bit ones — each a couple of shift/mask
/// ops wide across all eight lanes), then resolve the scale-class split
/// per cluster from the index byte's pair codes via byte masks — the
/// software form of the Fig. 6 MUX network.
#[inline(always)]
fn swar_decode_words(idx: u8, data: u64) -> ([u64; 3], [u64; 3]) {
    // Byte lane k = cluster k's 6 data bits.
    let six = swar_spread4(data & 0xFF_FFFF) | (swar_spread4((data >> 24) & 0xFF_FFFF) << 32);
    // Byte lane k = cluster k's 2-bit code (each pair code replicated to
    // both of its clusters).
    let idx = idx as u64;
    let codes = ((idx & 3) * 0x0101)
        | (((idx >> 2) & 3) * 0x0101_0000)
        | (((idx >> 4) & 3) * 0x0101_0000_0000)
        | (((idx >> 6) & 3) * 0x0101_0000_0000_0000);
    // Class masks from the two code bits: the bit masks intersect to the
    // four exact-code masks without testing each code separately
    // (`m11 ⊆ mb0 ∩ mb1`, so the XORs below peel it back out).
    let mb0 = swar_mask(codes & SWAR_ONES);
    let mb1 = swar_mask((codes >> 1) & SWAR_ONES);
    let m11 = mb0 & mb1; // ZeroThird
    let m01 = mb0 ^ m11; // ZeroFirst
    let m10 = mb1 ^ m11; // ZeroSecond
    let m00 = !(mb0 | mb1); // AllTwoBit
                            // Both interpretations of every cluster's 6 bits, decoded at once:
                            // 2-bit fields at bits {0, 2, 4} (1-bit magnitude, sign above it) ...
    let v2_0 = swar_sign_apply(six & SWAR_ONES, (six >> 1) & SWAR_ONES);
    let v2_1 = swar_sign_apply((six >> 2) & SWAR_ONES, (six >> 3) & SWAR_ONES);
    let v2_2 = swar_sign_apply((six >> 4) & SWAR_ONES, (six >> 5) & SWAR_ONES);
    // ... and 3-bit fields at bits {0, 3} (2-bit magnitude, sign above).
    let v3_0 = swar_sign_apply(six & SWAR_MAG2, (six >> 2) & SWAR_ONES);
    let v3_1 = swar_sign_apply((six >> 3) & SWAR_MAG2, (six >> 5) & SWAR_ONES);
    // The class split, per cluster, straight from the code masks: code 00
    // puts all three 2-bit lanes in the `two` class; the outlier codes
    // route their two stored 3-bit fields around the sacrificed position.
    let two = [v2_0 & m00, v2_1 & m00, v2_2 & m00];
    let three = [v3_0 & (m10 | m11), (v3_0 & m01) | (v3_1 & m11), v3_1 & (m01 | m10)];
    (two, three)
}

/// One block's SWAR decode staged for per-lane reads: the six decoded
/// words stored as plain bytes — `two[j][k]` / `three[j][k]` is lane `j`
/// of cluster `k` (an `i8` stored as its `u8` bit pattern). Six 8-byte
/// stores, no per-lane transpose; consumers read single bytes back at
/// constant offsets from L1-resident stack slots, so staging a block
/// costs barely more than the decode itself.
struct DecodedBlockBytes {
    two: [[u8; 8]; 3],
    three: [[u8; 8]; 3],
}

impl DecodedBlockBytes {
    /// Stages the SWAR decode of a 48-bit data word under an index byte.
    #[inline(always)]
    fn from_words(idx: u8, data: u64) -> Self {
        let (t, h) = swar_decode_words(idx, data);
        Self {
            two: [t[0].to_le_bytes(), t[1].to_le_bytes(), t[2].to_le_bytes()],
            three: [h[0].to_le_bytes(), h[1].to_le_bytes(), h[2].to_le_bytes()],
        }
    }

    /// Stages the SWAR decode of one 7-byte block.
    #[inline(always)]
    fn decode(block: &[u8]) -> Self {
        Self::from_words(block_index_byte(block), block_data_word(block))
    }

    /// Lane `j` of cluster `k`, by scale class.
    #[inline(always)]
    fn lanes(&self, k: usize, j: usize) -> (i8, i8) {
        (self.two[j][k] as i8, self.three[j][k] as i8)
    }
}

/// Decodes all eight clusters of a block in one SWAR pass. Returns the
/// width-split lane values in index order — `two[3k + j]` / `three[3k + j]`
/// is lane `j` of cluster `k`: the [`DECODE_INTS`] integer in the array of
/// the lane's scale class (`two` under code `00`, `three` otherwise) and
/// zero in the other (cross-checked exhaustively by tests).
#[inline(always)]
pub fn decode_block_swar(idx: u8, data: u64) -> ([i8; WEIGHTS_PER_BLOCK], [i8; WEIGHTS_PER_BLOCK]) {
    let d = DecodedBlockBytes::from_words(idx, data);
    let mut out_two = [0i8; WEIGHTS_PER_BLOCK];
    let mut out_three = [0i8; WEIGHTS_PER_BLOCK];
    for k in 0..CLUSTERS_PER_BLOCK {
        for j in 0..3 {
            let (two, three) = d.lanes(k, j);
            out_two[k * 3 + j] = two;
            out_three[k * 3 + j] = three;
        }
    }
    (out_two, out_three)
}

/// Reusable kernel scratch: the column-major activation restage of the
/// batched kernels. Threading one of these through a sequence of calls
/// (e.g. a transformer's per-layer forward loop) replaces the per-call
/// allocation with buffer reuse; capacity grows to the largest shape seen
/// and stays. (The accumulators are register-resident locals of the walk
/// and need no scratch.)
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    a_t: Vec<f32>,
}

impl KernelScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Mutable access to disjoint ranges of one output buffer from concurrent
/// workers. Safety rests on the caller: every index must be written by at
/// most one worker (the kernels partition by channel, and each channel
/// owns a disjoint set of output indices).
struct SendSlice<T>(*mut T);

unsafe impl<T: Send> Send for SendSlice<T> {}
unsafe impl<T: Send> Sync for SendSlice<T> {}

impl<T> SendSlice<T> {
    fn new(s: &mut [T]) -> Self {
        Self(s.as_mut_ptr())
    }

    /// # Safety
    ///
    /// `i` must be in bounds and written by no other thread.
    unsafe fn write(&self, i: usize, v: T) {
        self.0.add(i).write(v);
    }
}

// ---- the sparse-aware lane walk ------------------------------------------

/// Bit `6k` for every cluster `k` of a 48-bit data word.
const CLUSTER_LSB: u64 = 0x0410_4104_1041;

/// `MAGNITUDE_BITS[idx]`: the magnitude bits of every stored field of a
/// data word under index byte `idx` — bits {0, 2, 4} of a three-2-bit
/// cluster, bits {0, 1, 3, 4} of a two-3-bit one, the layout chosen per
/// cluster pair from its code. A field decodes to zero iff its magnitude
/// bits are clear (the sign bit alone is negative zero).
const MAGNITUDE_BITS: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut idx = 0usize;
    while idx < 256 {
        let mut pair = 0usize;
        while pair < 4 {
            let fields = if (idx >> (CODE_BITS * pair)) & 0b11 == 0 { 0x555 } else { 0x6DB };
            table[idx] |= fields << (2 * CLUSTER_DATA_BITS * pair);
            pair += 1;
        }
        idx += 1;
    }
    table
};

/// The live-cluster mask of a block: bit `6k` is set iff cluster `k` holds
/// a nonzero lane, straight from the raw bits in a handful of register ops
/// — nothing is decoded to find out that a cluster is dead.
#[inline(always)]
fn live_clusters(idx: u8, data: u64) -> u64 {
    let m = data & MAGNITUDE_BITS[idx as usize];
    let m = m | (m >> 1) | (m >> 2);
    (m | (m >> 3)) & CLUSTER_LSB
}

/// Accumulates one block into the two class accumulators: only the live
/// clusters are visited (in index order), each decoded through
/// [`DECODE_INTS`]. A cluster is single-class, so the accumulator is picked
/// once per cluster from its code and the sacrificed lane is skipped by
/// position; `cols[i]` is the activation tile of the block's lane `i`, and
/// `cols.len()` bounds the walk — 24 (a constant after inlining) for a
/// full block, fewer for a channel's partial tail, whose padding lanes
/// peer bytes are free to set.
#[inline(always)]
fn accumulate_block<const N: usize>(
    block: &[u8],
    cols: &[[f32; N]],
    acc2: &mut [f32; N],
    acc3: &mut [f32; N],
) {
    let idx = block_index_byte(block);
    let data = block_data_word(block);
    // Lane `i` as `(weight, activation tile)`; a lane past the bound reads
    // as a zero weight over a zero tile, the exact no-op `+0.0` term.
    let lane = |q: i8, i: usize| cols.get(i).map_or((0.0, &[0.0; N]), |x| (q as f32, x));
    let mut live = live_clusters(idx, data);
    while live != 0 {
        let shift = live.trailing_zeros() as usize;
        live &= live - 1;
        let k = shift / CLUSTER_DATA_BITS;
        let code = ((idx >> (CODE_BITS * (k / 2))) & 0b11) as usize;
        let q = &DECODE_INTS[code][(data >> shift) as usize & 0x3F];
        if code == 0 {
            let ((q0, x0), (q1, x1)) = (lane(q[0], 3 * k), lane(q[1], 3 * k + 1));
            let (q2, x2) = lane(q[2], 3 * k + 2);
            for c in 0..N {
                acc2[c] += q0 * x0[c];
                acc2[c] += q1 * x1[c];
                acc2[c] += q2 * x2[c];
            }
        } else {
            // Code `c` sacrifices lane `c - 1`: the stored pair is lanes
            // (1, 2), (0, 2) or (0, 1).
            let (j0, j1) = ((code == 1) as usize, 2 - (code == 3) as usize);
            let ((q0, x0), (q1, x1)) = (lane(q[j0], 3 * k + j0), lane(q[j1], 3 * k + j1));
            for c in 0..N {
                acc3[c] += q0 * x0[c];
                acc3[c] += q1 * x1[c];
            }
        }
    }
}

/// The one accumulate loop of the module: streams a channel's blocks once
/// against an `N`-column activation panel (`panel[i * N + c]` is column
/// `c`'s activation for weight `i`) into per-column class accumulators
/// kept as `[f32; N]` locals throughout, and returns the per-column
/// results `s2·acc2[c] + s3·acc3[c]`.
///
/// Every kernel is an instance — [`PackedChannel::dot`] is `N = 1` over
/// the activation vector itself — so for any fixed column the float
/// sequence is the same at every `N`: each accumulator receives its live
/// lanes in index order, mul then add. Relative to adding every lane's
/// term, the walk only ever omits `±0.0` terms (a zero weight times a
/// finite activation), and that is a bit-exact no-op: an accumulator that
/// starts at `+0.0` never becomes `-0.0` under round-to-nearest, and
/// `a + ±0.0 == a` bit for bit for every other `a` (pinned with `to_bits`
/// against both forms in `tests/swar_decode.rs`). Non-finite activations
/// are outside the kernels' contract — there `0·inf = NaN` makes the forms
/// diverge, as it would any rearrangement of float accumulation.
fn walk<const N: usize>(ch: &PackedChannel<'_>, panel: &[f32]) -> [f32; N] {
    let (cols, _) = panel.as_chunks::<N>();
    let len = ch.len();
    debug_assert_eq!(cols.len(), len);
    let (mut acc2, mut acc3) = ([0.0f32; N], [0.0f32; N]);
    let full = len / WEIGHTS_PER_BLOCK;
    let mut blocks = ch.blocks().chunks_exact(BLOCK_BYTES);
    for (block, cols) in blocks.by_ref().take(full).zip(cols.chunks_exact(WEIGHTS_PER_BLOCK)) {
        accumulate_block(block, cols, &mut acc2, &mut acc3);
    }
    if let Some(block) = blocks.next() {
        // `..len` rather than `..`: it is the explicit bound that shows
        // the optimizer a tail of fewer than 24 lanes (measured: the open
        // range costs 15-20 % of a 512-column GEMV).
        accumulate_block(block, &cols[full * WEIGHTS_PER_BLOCK..len], &mut acc2, &mut acc3);
    }
    let (s2, s3) = (ch.scale2(), ch.scale3());
    std::array::from_fn(|c| s2 * acc2[c] + s3 * acc3[c])
}

/// A channel is a [`PanelKernel`]: `walk` against a panel of any tile
/// width.
impl PanelKernel for PackedChannel<'_> {
    fn run<const N: usize>(&self, panel: &[f32]) -> [f32; N] {
        walk(self, panel)
    }
}

/// The one channel loop of the module: `Y[t, r]` = channel `r` of `m`
/// against batch row `t`. `staged` is the batch in [`restage_columns`]
/// layout and `out` the row-major `t_len x m.rows()` result. `pool`, when
/// given, distributes the channels; each channel is computed whole by one
/// worker and owns output column `r`, so the result is bit-identical at
/// any thread count.
fn channel_loop(
    m: &PackedMatrix,
    staged: &[f32],
    t_len: usize,
    out: &mut [f32],
    pool: Option<&ThreadPool>,
) {
    let rows = m.rows();
    assert_eq!(out.len(), t_len * rows, "the output holds t_len x rows values");
    let writer = SendSlice::new(out);
    let channel_range = |start: usize, end: usize| {
        // SAFETY: `t < t_len` and `r = start + k < rows`, so the index is
        // within the `t_len * rows` values asserted above; channel `r`
        // belongs to exactly one chunk of `0..rows` and alone writes
        // column `r`.
        for_each_row(m.channel_range(start, end), staged, t_len, m.cols(), |k, t, y| unsafe {
            writer.write(t * rows + start + k, y)
        });
    };
    match pool {
        Some(pool) => pool.run(rows, 1, &|_, start, end| channel_range(start, end)),
        None => channel_range(0, rows),
    }
}

impl PackedChannel<'_> {
    /// Fused dot product `wᵀx` computed straight from the packed blocks —
    /// the serving GEMV inner loop, the single-column instance of the
    /// `walk` every batched kernel runs. Never materializes the
    /// dequantized channel.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the channel length.
    pub fn dot(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.len(), "input length must equal channel length");
        let [y] = walk::<1>(self, x);
        y
    }

    /// Alias of [`PackedChannel::dot`]. The name survives because
    /// `bench/`'s GEMV probe (frozen between benchmark issues) calls it,
    /// and the differential tests use it to say "the reference" when
    /// checking the batched kernels.
    pub fn dot_scalar(&self, x: &[f32]) -> f32 {
        self.dot(x)
    }

    /// Decodes the channel back to real weights (padding stripped):
    /// allocates the result, then [`PackedChannel::dequantize_into`].
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Decodes the channel into a caller-provided buffer (padding
    /// stripped), the allocation-free form of
    /// [`PackedChannel::dequantize`]. Every element of `out` is written
    /// exactly once (`two[j]·s2 + three[j]·s3`, one term always zero).
    /// Every block goes through the SWAR decode, the partial tail block
    /// included: it is decoded whole and only its in-bounds lanes are read
    /// back, so the padding lanes (which peer bytes are free to set) are
    /// decoded and dropped.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the channel length.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "output length must equal channel length");
        let (s2, s3) = (self.scale2(), self.scale3());
        let weight = |d: &DecodedBlockBytes, k: usize, j: usize| {
            let (two, three) = d.lanes(k, j);
            two as f32 * s2 + three as f32 * s3
        };
        let (full, tail) = out.as_chunks_mut::<WEIGHTS_PER_BLOCK>();
        let mut blocks = self.blocks().chunks_exact(BLOCK_BYTES);
        for (os, block) in full.iter_mut().zip(blocks.by_ref()) {
            let d = DecodedBlockBytes::decode(block);
            for k in 0..CLUSTERS_PER_BLOCK {
                for j in 0..3 {
                    os[k * 3 + j] = weight(&d, k, j);
                }
            }
        }
        if let Some(block) = blocks.next() {
            let d = DecodedBlockBytes::decode(block);
            for (k, os) in tail.chunks_mut(3).enumerate() {
                for (j, o) in os.iter_mut().enumerate() {
                    *o = weight(&d, k, j);
                }
            }
        }
    }

    /// Storage bytes of the channel in serving form: the packed blocks
    /// plus the two per-channel Eq. 1 scales (`scale2`, `scale3`),
    /// **fp16-accounted** — 2 bytes each, 4 bytes total — matching the
    /// paper's bits-per-weight bookkeeping ([`PackedMatrix::avg_bits_total`]
    /// charges the same `2 × 16` scale bits per channel). The scales are
    /// held as `f32` at runtime for arithmetic convenience; the *serving
    /// format* cost is the fp16 figure reported here.
    pub fn storage_bytes(&self) -> usize {
        self.data_bytes() + 2 * 2
    }
}

impl PackedMatrix {
    /// Fused GEMV `y = W x` (`x` of length `cols`, `y` of length `rows`),
    /// streaming the packed blocks channel by channel. Allocates the
    /// result; [`PackedMatrix::matvec_into`] is the allocation-free,
    /// optionally parallel form.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows()];
        self.matvec_into(x, &mut out, None);
        out
    }

    /// In-place fused GEMV: `y = W x` written into `out`, the channel loop
    /// optionally distributed over `pool` — the one-row case of the batched
    /// kernel (an activation vector is its own tile-1 panel, so nothing is
    /// restaged). Each channel is a whole work item
    /// ([`PackedChannel::dot`]) writing only its own `out[r]`, so the
    /// result is bit-identical to the serial path at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32], pool: Option<&ThreadPool>) {
        assert_eq!(x.len(), self.cols(), "input length must equal cols");
        assert_eq!(out.len(), self.rows(), "output length must equal rows");
        channel_loop(self, x, 1, out, pool);
    }

    /// Fused `Y = A Wᵀ` (`A` is `T x cols`, `Y` is `T x rows`) — the
    /// transformer's linear-layer orientation (activations row-major, one
    /// output feature per weight channel). Each live cluster is decoded once
    /// per panel of up to 16 activation rows and its lanes accumulate down
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != cols`.
    pub fn matmul_t(&self, a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), self.rows());
        self.matmul_t_into(a, &mut out);
        out
    }

    /// In-place form of [`PackedMatrix::matmul_t`] (which delegates here):
    /// `Y = A Wᵀ` written into a caller-provided `out` (`T x rows`),
    /// serial, with private scratch. The full-control form is
    /// [`PackedMatrix::matmul_t_into_with`].
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != cols` or `out` is not `a.rows() x rows`.
    pub fn matmul_t_into(&self, a: &Matrix, out: &mut Matrix) {
        self.matmul_t_into_with(a, out, &mut KernelScratch::new(), None);
    }

    /// `Y = A Wᵀ` into a caller-provided `out` with reusable scratch and an
    /// optional channel-parallel pool — the batched serving GEMM.
    ///
    /// The activations are restaged column-major once per call (into
    /// `scratch`, reused across calls) in panels of at most 16 rows, so
    /// every live lane reads its panel's activation values from one
    /// contiguous tile — the weight stream is walked **once** per panel
    /// (once for any batch of 1–16 rows) and the per-lane inner loop
    /// vectorizes over the batch dimension. A row of the result is
    /// bit-identical to [`PackedChannel::dot`] on the matching activation
    /// row — both are the same walk, at different tile widths (asserted by
    /// tests) — which is what lets a batch-of-1 serving step reproduce
    /// `forward_step` exactly.
    ///
    /// With a pool, the channel loop is distributed; each channel `r` is
    /// computed whole by one worker and owns the output column `r`, so the
    /// result is bit-identical to the serial path at any thread count —
    /// parallelism composes with the batch-invariance guarantee instead of
    /// weakening it.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != cols` or `out` is not `a.rows() x rows`.
    pub fn matmul_t_into_with(
        &self,
        a: &Matrix,
        out: &mut Matrix,
        scratch: &mut KernelScratch,
        pool: Option<&ThreadPool>,
    ) {
        assert_eq!(
            a.cols(),
            self.cols(),
            "matmul_t shape mismatch: {}x{} @ ({}x{})^T",
            a.rows(),
            a.cols(),
            self.rows(),
            self.cols()
        );
        let t_len = a.rows();
        let rows = self.rows();
        assert_eq!(
            (out.rows(), out.cols()),
            (t_len, rows),
            "matmul_t output must be {t_len}x{rows}"
        );
        // Column-major restaging: a_t holds activation column i across the
        // batch rows of each panel, contiguous for the walk's lane tiles.
        let a_t: &[f32] = restage_columns(a, &mut scratch.a_t);
        channel_loop(self, a_t, t_len, out.as_mut_slice(), pool);
    }

    /// Decodes the whole matrix: allocates the result, then
    /// [`PackedMatrix::dequantize_into`].
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.dequantize_into(&mut out);
        out
    }

    /// Decodes the whole matrix into a caller-provided dense matrix — the
    /// allocation-free fallback path.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different shape.
    pub fn dequantize_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows(), self.cols()),
            "output shape must match the packed matrix"
        );
        for (r, ch) in self.channels().enumerate() {
            ch.dequantize_into(out.row_mut(r));
        }
    }

    /// Total serving-form storage bytes (blocks + per-channel fp16 scales);
    /// see [`PackedChannel::storage_bytes`] for the accounting.
    pub fn storage_bytes(&self) -> usize {
        self.channels().map(|c| c.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::FineQuantizer;
    use fineq_tensor::Rng;

    fn random_packed(rows: usize, cols: usize, seed: u64) -> (Matrix, PackedMatrix) {
        let mut rng = Rng::seed_from(seed);
        let w = Matrix::from_fn(rows, cols, |_, _| {
            let v = rng.laplace(0.0, 0.02);
            if rng.chance(0.03) {
                v * 12.0
            } else {
                v
            }
        });
        let packed = FineQuantizer::paper().quantize_packed(&w);
        (w, packed)
    }

    // The exhaustive and random SWAR-vs-table differential sweeps live in
    // the workspace-level harness (`tests/swar_decode.rs`), which owns
    // the reference walk; the unit tests here cover only the properties
    // internal to this module.

    #[test]
    fn swar_decode_ignores_bits_above_the_data_word() {
        // Callers hand in `block_data_word` (48 bits), but the decoder must
        // not be sensitive to stray high bits either.
        let (two, three) = decode_block_swar(0b1110_0100, 0xFFFF_FFFF_FFFF);
        let with_junk = decode_block_swar(0b1110_0100, 0xFFFF_FFFF_FFFF_FFFF);
        assert_eq!((two, three), with_junk);
    }

    #[test]
    fn live_cluster_mask_is_exact_over_the_full_code_six_space() {
        // Every (code, six) at every cluster position, the other seven
        // clusters random and the bits above the data word set: cluster
        // k's live bit must say exactly "DECODE_INTS has a nonzero lane".
        let mut rng = Rng::seed_from(0x11FE);
        for (code, by_six) in DECODE_INTS.iter().enumerate() {
            for (six, ints) in by_six.iter().enumerate() {
                for k in 0..CLUSTERS_PER_BLOCK {
                    let pair_shift = CODE_BITS * (k / 2);
                    let idx = (rng.below(256) as u8 & !(0b11 << pair_shift))
                        | ((code as u8) << pair_shift);
                    let noise = (rng.below(1 << 24) as u64) | ((rng.below(1 << 24) as u64) << 24);
                    let field = 0x3F << (CLUSTER_DATA_BITS * k);
                    let data = (noise & !field) | ((six as u64) << (CLUSTER_DATA_BITS * k));
                    let live = live_clusters(idx, data | !0 << 48);
                    assert_eq!(live & !CLUSTER_LSB, 0, "only bits 6k may be set");
                    assert_eq!(
                        (live >> (CLUSTER_DATA_BITS * k)) & 1 == 1,
                        *ints != [0; 3],
                        "code {code} six {six:06b} at cluster {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_zero_fields_and_dead_blocks_read_dead() {
        // Sign bit alone (2-bit 0b10, 3-bit 0b100) is negative zero: dead.
        assert_eq!(live_clusters(0b00, 0b10_10_10), 0);
        assert_eq!(live_clusters(0b01, 0b100_100), 0);
        assert_eq!(live_clusters(0b01, 0b100_101), 1);
        // Eight dead clusters under every index byte, whatever sits above
        // the data word.
        for idx in 0..=255u8 {
            assert_eq!(live_clusters(idx, 0), 0);
            assert_eq!(live_clusters(idx, !0 << 48), 0);
            let neg_zero = !MAGNITUDE_BITS[idx as usize] & 0xFFFF_FFFF_FFFF;
            assert_eq!(live_clusters(idx, neg_zero), 0, "idx {idx:08b}");
        }
    }

    #[test]
    fn fused_dot_matches_dequantized_dot() {
        for (cols, seed) in [(24usize, 1u64), (25, 2), (47, 3), (96, 4), (1, 5), (2, 6)] {
            let (_, packed) = random_packed(4, cols, seed);
            let mut rng = Rng::seed_from(seed ^ 0xABC);
            let x: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
            let dq = packed.dequantize();
            for (r, ch) in packed.channels().enumerate() {
                let reference: f32 = dq.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
                let fused = ch.dot(&x);
                assert!(
                    (fused - reference).abs() < 1e-5,
                    "cols {cols} row {r}: {fused} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn fused_matvec_matches_reference() {
        let (_, packed) = random_packed(16, 93, 7);
        let mut rng = Rng::seed_from(8);
        let x: Vec<f32> = (0..93).map(|_| rng.normal(0.0, 1.0)).collect();
        let y = packed.matvec(&x);
        let dq = packed.dequantize();
        for (r, &yv) in y.iter().enumerate() {
            let reference: f32 = dq.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((yv - reference).abs() < 1e-5, "row {r}");
        }
    }

    #[test]
    fn matvec_into_matches_matvec_and_overwrites_stale_output() {
        let (_, packed) = random_packed(11, 50, 9);
        let mut rng = Rng::seed_from(10);
        let x: Vec<f32> = (0..50).map(|_| rng.normal(0.0, 1.0)).collect();
        let mut out = vec![99.0f32; 11];
        packed.matvec_into(&x, &mut out, None);
        assert_eq!(out, packed.matvec(&x));
    }

    #[test]
    fn fused_matmul_t_matches_dense_path() {
        let (_, packed) = random_packed(10, 31, 13);
        let mut rng = Rng::seed_from(14);
        let a = Matrix::from_fn(6, 31, |_, _| rng.normal(0.0, 1.0));
        let fused = packed.matmul_t(&a);
        let reference = a.matmul_transpose(&packed.dequantize());
        assert!(fused.sub(&reference).abs_max() < 1e-5);
    }

    #[test]
    fn matmul_t_rows_are_bit_identical_to_per_row_dot() {
        // The batched serving engine relies on this exactly: a row of the
        // batched GEMM equals single-sequence decoding of that row,
        // bit-for-bit, regardless of what else is in the batch.
        let (_, packed) = random_packed(12, 67, 21);
        let mut rng = Rng::seed_from(22);
        let a = Matrix::from_fn(16, 67, |_, _| rng.normal(0.0, 1.0));
        let batched = packed.matmul_t(&a);
        for t in 0..a.rows() {
            for (r, ch) in packed.channels().enumerate() {
                assert_eq!(batched[(t, r)], ch.dot(a.row(t)), "row {t} channel {r}");
            }
        }
    }

    #[test]
    fn pooled_kernels_are_bit_identical_to_serial() {
        // The determinism guarantee at kernel level: any thread count,
        // any shape (full blocks, partial tail, single row/col), exact
        // equality with the serial path.
        for (rows, cols, seed) in [(12usize, 67usize, 31u64), (1, 24, 32), (5, 1, 33), (33, 95, 34)]
        {
            let (_, packed) = random_packed(rows, cols, seed);
            let mut rng = Rng::seed_from(seed ^ 0xF00);
            let x: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
            let a = Matrix::from_fn(5, cols, |_, _| rng.normal(0.0, 1.0));
            let serial_mv = packed.matvec(&x);
            let serial_mt = packed.matmul_t(&a);
            for threads in [2usize, 4, 7] {
                let pool = ThreadPool::new(threads);
                let mut scratch = KernelScratch::new();
                let mut mv = vec![0.0f32; rows];
                packed.matvec_into(&x, &mut mv, Some(&pool));
                assert_eq!(mv, serial_mv, "matvec {rows}x{cols} threads {threads}");
                let mut mt = Matrix::zeros(5, rows);
                packed.matmul_t_into_with(&a, &mut mt, &mut scratch, Some(&pool));
                assert_eq!(mt, serial_mt, "matmul_t {rows}x{cols} threads {threads}");
            }
        }
    }

    #[test]
    fn sharded_gathers_are_bit_identical_to_unsharded() {
        // Row slices of one matrix, each run on its own, must equal the
        // matching columns of the unsharded kernel exactly — uneven
        // splits, a 1-row slice, and a split finer than the channel count
        // all included.
        for (rows, cols, seed) in [(13usize, 67usize, 51u64), (4, 24, 52), (1, 9, 53)] {
            let (_, packed) = random_packed(rows, cols, seed);
            let mut rng = Rng::seed_from(seed ^ 0x5A5A);
            let a = Matrix::from_fn(5, cols, |_, _| rng.normal(0.0, 1.0));
            let serial_mt = packed.matmul_t(&a);
            for n_shards in [1usize, 2, 3, 5] {
                // Contiguous split, deliberately uneven: ceil-sized head.
                let chunk = rows.div_ceil(n_shards);
                for threads in [1usize, 3] {
                    let pool = ThreadPool::new(threads);
                    let mut scratch = KernelScratch::new();
                    let mut start = 0;
                    while start < rows {
                        let end = (start + chunk).min(rows);
                        let mut mt = Matrix::zeros(5, end - start);
                        packed.slice_rows(start, end).matmul_t_into_with(
                            &a,
                            &mut mt,
                            &mut scratch,
                            Some(&pool),
                        );
                        for r in start..end {
                            assert_eq!(
                                mt.col(r - start),
                                serial_mt.col(r),
                                "{rows}x{cols} shards {n_shards} t {threads} channel {r}"
                            );
                        }
                        start = end;
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_faithful() {
        // One scratch threaded through calls of different shapes (the
        // per-layer forward pattern: d_model and d_ff sites interleave)
        // must not leak state between calls.
        let mut scratch = KernelScratch::new();
        let mut rng = Rng::seed_from(40);
        for (rows, cols, t_len, seed) in
            [(16usize, 48usize, 4usize, 41u64), (8, 96, 7, 42), (16, 48, 4, 43), (3, 25, 1, 44)]
        {
            let (_, packed) = random_packed(rows, cols, seed);
            let a = Matrix::from_fn(t_len, cols, |_, _| rng.normal(0.0, 1.0));
            let mut out = Matrix::zeros(t_len, rows);
            packed.matmul_t_into_with(&a, &mut out, &mut scratch, None);
            assert_eq!(out, packed.matmul_t(&a), "{rows}x{cols} t {t_len}");
        }
    }

    #[test]
    fn matmul_t_into_reuses_output_buffer() {
        let (_, packed) = random_packed(8, 31, 23);
        let mut rng = Rng::seed_from(24);
        let mut out = Matrix::from_fn(5, 8, |_, _| rng.normal(0.0, 9.0)); // stale contents
        let a = Matrix::from_fn(5, 31, |_, _| rng.normal(0.0, 1.0));
        packed.matmul_t_into(&a, &mut out);
        assert_eq!(out, packed.matmul_t(&a));
    }

    #[test]
    #[should_panic(expected = "output must be")]
    fn matmul_t_into_rejects_wrong_output_shape() {
        let (_, packed) = random_packed(4, 24, 25);
        let a = Matrix::zeros(3, 24);
        let mut out = Matrix::zeros(3, 5);
        packed.matmul_t_into(&a, &mut out);
    }

    #[test]
    fn dequantize_into_agrees_with_dequantize() {
        let (_, packed) = random_packed(5, 40, 15);
        let mut out = Matrix::zeros(5, 40);
        packed.dequantize_into(&mut out);
        assert_eq!(out, packed.dequantize());
    }

    #[test]
    fn storage_bytes_accounts_blocks_and_scales() {
        let (_, packed) = random_packed(3, 24, 16);
        // 24 weights -> 8 clusters -> 1 block of 7 bytes, plus 2 fp16
        // scales = 4 bytes, per channel.
        assert_eq!(packed.storage_bytes(), 3 * (7 + 4));
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn dot_rejects_wrong_length() {
        let (_, packed) = random_packed(2, 12, 17);
        let _ = packed.channel(0).dot(&[0.0; 11]);
    }

    #[test]
    fn empty_channel_dot_is_zero() {
        let m = PackedMatrix::pack_channel(0.0, 0.0, 0, &[], &[]);
        assert_eq!(m.channel(0).dot(&[]), 0.0);
    }

    #[test]
    fn zero_column_matmul_t_is_zero() {
        // `dot` on an empty channel is 0.0; the batched kernels must agree
        // instead of panicking in the restage (`chunks_exact(0)`).
        let a = Matrix::zeros(2, 0);
        let empty = || PackedMatrix::pack_channel(0.0, 0.0, 0, &[], &[]);
        for rows in [0usize, 3] {
            let packed = PackedMatrix::from_body(rows, 0, empty().body().repeat(rows));
            assert_eq!(packed.matmul_t(&a), Matrix::zeros(2, rows));
            let mut out = Matrix::from_fn(2, rows, |_, _| 9.0);
            let pool = ThreadPool::new(2);
            packed.matmul_t_into_with(&a, &mut out, &mut KernelScratch::new(), Some(&pool));
            assert_eq!(out, Matrix::zeros(2, rows));
        }
    }
}
