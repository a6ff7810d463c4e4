//! Differential harness for the packed decode paths: the SWAR wide-word
//! decode and the sparse lane walk of the accumulate kernels must be
//! **bit-identical** to the per-cluster decode table (`DECODE_INTS`)
//! everywhere they can possibly be reached — `assert_eq!`, never
//! approximate. Every reference here is written in this file from the
//! table and `code != 0` (a cluster is 2-bit class iff its code is `00`).
//!
//! Layer by layer:
//!
//! 1. block level — `decode_block_swar` against `DECODE_INTS` over the
//!    **full** `code × six` space (every cluster position, plus random
//!    mixed blocks);
//! 2. channel level — `dot` (the `N = 1` lane walk, a.k.a. `dot_scalar`)
//!    against a lane-by-lane table walk for every partial-tail length
//!    1..=24, alone and behind full blocks, under every cluster code; and
//!    `dequantize_into` / `dequantize` (SWAR, whole blocks) against the
//!    table for every length 0..=49 × lane population × zero scales, with
//!    the padding bits set;
//! 3. tile level — every row-tile width and remainder of the batched walk
//!    × tail shape × lane population × signed zeros and subnormals,
//!    `to_bits`-equal to `dot`, and `dot` `to_bits`-equal to lane-by-lane
//!    references that add every term / only the nonzero terms;
//! 4. matrix level — seeded-random whole-matrix sweeps (odd shapes,
//!    1-row, 1-col) of `matvec` and the batched `matmul_t` against the
//!    `dot_scalar` reference;
//! 5. serving level — whole `BatchScheduler` runs over the packed model
//!    and its `ShardPlan::rebuild` at threads {1, 2, 4, 7} × shards
//!    {1, 2, 3, 5}, all bit-identical to the serial unsharded reference.
//!
//! Together these are the proof obligation the kernels carry: the
//! batch-composition, thread-count and shard-count determinism contracts
//! of PRs 2–4 survive because the decoded integers and each accumulator's
//! order of nonzero terms never changed.

use fineq::core::pack::{BLOCK_BYTES, CLUSTERS_PER_BLOCK, DECODE_INTS, WEIGHTS_PER_BLOCK};
use fineq::core::{
    block_data_word, decode_block_swar, ClusterCode, FineQuantizer, PackedChannel, PackedMatrix,
};
use fineq::lm::builder::{build_fitted_model, BuilderSpec};
use fineq::lm::corpus::Corpus;
use fineq::lm::{BatchScheduler, ServeRequest, ShardPlan};
use fineq::pipeline::{serve_packed_with_threads, PipelineConfig};
use fineq::tensor::{Matrix, Rng};

/// The scalar reference for one whole block: the per-cluster table walk,
/// each cluster's `DECODE_INTS` triple filed under its scale class.
fn table_block(idx: u8, data: u64) -> ([i8; WEIGHTS_PER_BLOCK], [i8; WEIGHTS_PER_BLOCK]) {
    let mut two = [0i8; WEIGHTS_PER_BLOCK];
    let mut three = [0i8; WEIGHTS_PER_BLOCK];
    for k in 0..CLUSTERS_PER_BLOCK {
        let code = ((idx >> (2 * (k / 2))) & 0b11) as usize;
        let ints = DECODE_INTS[code][((data >> (6 * k)) & 0x3F) as usize];
        let class = if code != 0 { &mut three } else { &mut two };
        class[k * 3..k * 3 + 3].copy_from_slice(&ints);
    }
    (two, three)
}

/// Exhaustive `code × six` coverage: every combination replicated across
/// all clusters, and every combination alone at each of the 8 cluster
/// positions — 4 × 64 × 9 block decodes, each checked lane for lane
/// against the `DECODE_INTS` walk.
#[test]
fn swar_decode_covers_the_full_code_six_space() {
    for code in 0..4u8 {
        let idx = code * 0b0101_0101;
        for six in 0..64u64 {
            let everywhere = (0..CLUSTERS_PER_BLOCK).fold(0u64, |d, k| d | (six << (6 * k)));
            for data in
                std::iter::once(everywhere).chain((0..CLUSTERS_PER_BLOCK).map(|k| six << (6 * k)))
            {
                assert_eq!(
                    decode_block_swar(idx, data),
                    table_block(idx, data),
                    "code {code} six {six:06b} data {data:012x}"
                );
            }
        }
    }
}

/// Random mixed blocks: arbitrary index bytes (all four pair codes
/// differing) and arbitrary 48-bit words, including bit patterns packing
/// never emits (negative-zero fields) — the decoder is total on the wire
/// format.
#[test]
fn swar_decode_matches_lut_walk_on_random_mixed_blocks() {
    let mut rng = Rng::seed_from(0x5AAB);
    for trial in 0..50_000 {
        let idx = rng.below(256) as u8;
        let data = (rng.below(1 << 24) as u64) | ((rng.below(1 << 24) as u64) << 24);
        assert_eq!(
            decode_block_swar(idx, data),
            table_block(idx, data),
            "trial {trial}: idx {idx:08b} data {data:012x}"
        );
    }
}

/// A packed channel of exactly `len` weights with seeded-random codes and
/// in-range field values — constructed through `PackedChannel::pack`, so
/// every cluster code (not just the ones a real quantizer favours) lands
/// in the tail.
fn random_channel(len: usize, rng: &mut Rng) -> PackedChannel {
    let n_clusters = len.div_ceil(3);
    let codes: Vec<ClusterCode> = (0..n_clusters.div_ceil(2))
        .map(|_| ClusterCode::ALL[rng.below(ClusterCode::ALL.len())])
        .collect();
    let quantized: Vec<[i32; 3]> =
        (0..n_clusters).map(|_| [0, 1, 2].map(|_| rng.below(7) as i32 - 3)).collect();
    PackedChannel::pack(0.3, 0.1, len, &codes, &quantized)
}

/// Channel-level differential: `dot` (the lane walk, which `dot_scalar`
/// forwards to) against the lane-by-lane `DECODE_INTS` walk — every
/// partial tail length 1..=24, bare and behind full blocks, many seeds.
/// (The dequantizers' half of this level is
/// `both_dequantizers_are_bit_equal_to_the_table_at_every_length`.)
#[test]
fn dot_equals_scalar_reference_for_every_tail_length() {
    let mut rng = Rng::seed_from(0xD1FF);
    for tail in 1..=WEIGHTS_PER_BLOCK {
        for lead_blocks in [0usize, 1, 2] {
            for round in 0..8 {
                let len = lead_blocks * WEIGHTS_PER_BLOCK + tail;
                let ch = random_channel(len, &mut rng);
                assert_eq!(ch.data_bytes(), len.div_ceil(3).div_ceil(8) * BLOCK_BYTES);
                let x: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
                let at = format!("tail {tail} lead {lead_blocks} round {round}");
                assert_eq!(ch.dot(&x), ch.dot_scalar(&x), "{at}");
                assert_eq!(ch.dot(&x), reference_dot(&ch, &x, true), "{at}");
            }
        }
    }
}

fn random_packed(rows: usize, cols: usize, seed: u64) -> PackedMatrix {
    let mut rng = Rng::seed_from(seed);
    let w = Matrix::from_fn(rows, cols, |_, _| {
        let v = rng.laplace(0.0, 0.02);
        if rng.chance(0.04) {
            v * 10.0
        } else {
            v
        }
    });
    FineQuantizer::paper().quantize_packed(&w)
}

/// Matrix-level differential sweep: seeded-random matrices in odd shapes
/// (1-row, 1-col, partial tails, widths crossing several blocks) — every
/// GEMV/GEMM output element must equal the scalar `dot_scalar` reference
/// exactly, through the per-channel GEMV and the batched column kernel.
#[test]
fn whole_matrix_kernels_equal_the_scalar_reference() {
    for (rows, cols, seed) in [
        (1usize, 1usize, 81u64),
        (1, 24, 82),
        (5, 1, 83),
        (4, 24, 84),
        (7, 47, 85),
        (16, 93, 86),
        (33, 121, 87),
    ] {
        let packed = random_packed(rows, cols, seed);
        let mut rng = Rng::seed_from(seed ^ 0xD1F);
        let x: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
        let a = Matrix::from_fn(5, cols, |_, _| rng.normal(0.0, 1.0));
        let scalar_mv: Vec<f32> = packed.channels().iter().map(|c| c.dot_scalar(&x)).collect();
        assert_eq!(packed.matvec(&x), scalar_mv, "{rows}x{cols} matvec");
        let mt = packed.matmul_t(&a);
        for t in 0..a.rows() {
            for (r, ch) in packed.channels().iter().enumerate() {
                assert_eq!(mt[(t, r)], ch.dot_scalar(a.row(t)), "{rows}x{cols} matmul_t ({t},{r})");
            }
        }
    }
}

/// Lane `i` of a channel read from the raw blocks through `DECODE_INTS`
/// alone: its integer and its cluster's 2-bit code.
fn lane_at(ch: &PackedChannel, i: usize) -> (i8, usize) {
    let k = i / 3;
    let block = &ch.blocks()[k / CLUSTERS_PER_BLOCK * BLOCK_BYTES..][..BLOCK_BYTES];
    let k_in = k % CLUSTERS_PER_BLOCK;
    let code = ((block[0] >> (2 * (k_in / 2))) & 0b11) as usize;
    let six = ((block_data_word(block) >> (6 * k_in)) & 0x3F) as usize;
    (DECODE_INTS[code][six][i % 3], code)
}

/// The two lane-by-lane references of a channel's dot product, decoded
/// from the raw blocks through `DECODE_INTS` alone: with `every_term` each
/// lane adds `two·x` to `acc2` **and** `three·x` to `acc3` (the branchless
/// form the sparse walk replaced — most terms are `±0.0`); without it only
/// nonzero weights add a term. Same lane order, mul then add, same
/// `s2·acc2 + s3·acc3` combine.
fn reference_dot(ch: &PackedChannel, x: &[f32], every_term: bool) -> f32 {
    let (mut acc2, mut acc3) = (0.0f32, 0.0f32);
    for (i, &xv) in x.iter().enumerate() {
        let (q, code) = lane_at(ch, i);
        let (two, three) = if code != 0 { (0, q) } else { (q, 0) };
        if every_term || two != 0 {
            acc2 += two as f32 * xv;
        }
        if every_term || three != 0 {
            acc3 += three as f32 * xv;
        }
    }
    ch.scale2() * acc2 + ch.scale3() * acc3
}

/// The channel `pack` builds, with every padding bit of its last block
/// (the clusters past `n_clusters`) set: what a peer's bytes may contain.
fn with_padding_set(ch: PackedChannel) -> PackedChannel {
    let mut blocks = ch.blocks().to_vec();
    let used = ch.n_clusters() % CLUSTERS_PER_BLOCK;
    if used != 0 {
        let last = blocks.len() - BLOCK_BYTES;
        let data = block_data_word(&blocks[last..]) | (!0u64 << (6 * used));
        blocks[last + 1..].copy_from_slice(&data.to_le_bytes()[..BLOCK_BYTES - 1]);
    }
    PackedChannel::from_raw_parts(ch.scale2(), ch.scale3(), ch.len(), blocks)
}

/// Four channels of `len` weights, one per lane population the walk must
/// not care about: every lane dead, every lane a live 2-bit lane, every
/// cluster an outlier cluster (stored lanes random, zeros included), and
/// what the quantizer emits. The lanes of the last cluster past `len` are
/// nonzero and the padding clusters are all-ones.
fn population_channels(len: usize, rng: &mut Rng) -> PackedMatrix {
    let n_clusters = len.div_ceil(3);
    let pairs = n_clusters.div_ceil(2);
    let pack = |codes: &[ClusterCode], q: &[[i32; 3]]| {
        with_padding_set(PackedChannel::pack(0.3, 0.1, len, codes, q))
    };
    let dead = pack(&vec![ClusterCode::ALL[rng.below(4)]; pairs], &vec![[0; 3]; n_clusters]);
    let sign = |rng: &mut Rng| if rng.chance(0.5) { -1 } else { 1 };
    let live2: Vec<[i32; 3]> = (0..n_clusters).map(|_| [0, 1, 2].map(|_| sign(rng))).collect();
    let live2 = pack(&vec![ClusterCode::AllTwoBit; pairs], &live2);
    let codes: Vec<ClusterCode> = (0..pairs).map(|_| ClusterCode::ALL[1 + rng.below(3)]).collect();
    let q: Vec<[i32; 3]> =
        (0..n_clusters).map(|_| [0, 1, 2].map(|_| rng.below(7) as i32 - 3)).collect();
    let outlier = pack(&codes, &q);
    let fixture = match len {
        0 => pack(&[], &[]),
        _ => with_padding_set(random_packed(1, len, 0xF1C + len as u64).channels()[0].clone()),
    };
    PackedMatrix::new(4, len, vec![dead, live2, outlier, fixture])
}

/// Tile-level differential, the proof obligation of the sparse walk: at
/// every tile width and remainder (`t_len` 1..=33), every tail shape and
/// every lane population, over activations salted with `+0.0`, `-0.0` and
/// subnormals, each batched output row is **`to_bits`-equal** to `dot` on
/// that row, and `dot` is `to_bits`-equal to both lane-by-lane references
/// — the one that adds every `±0.0` term and the one that adds none. That
/// pins the signed-zero argument the walk rests on (skipping a `±0.0`
/// term never changes a bit) rather than asserting it in a comment.
#[test]
fn every_tile_is_bit_equal_to_dot_and_dot_to_both_lane_references() {
    let mut rng = Rng::seed_from(0x711E);
    let salt = [0.0f32, -0.0, f32::from_bits(1), -f32::from_bits(0x0040_0000), f32::MIN_POSITIVE];
    for len in [0usize, 1, 2, 3, 23, 24, 25, 47, 256, 515] {
        let packed = population_channels(len, &mut rng);
        for t_len in [1usize, 2, 3, 4, 5, 8, 9, 15, 16, 17, 33] {
            let a = Matrix::from_fn(t_len, len, |_, _| match rng.below(4) {
                0 => salt[rng.below(salt.len())],
                _ => rng.normal(0.0, 1.0),
            });
            let batched = packed.matmul_t(&a);
            for (r, ch) in packed.channels().iter().enumerate() {
                for t in 0..t_len {
                    let dot = ch.dot(a.row(t));
                    let at = format!("len {len} t_len {t_len} row {t} population {r}");
                    assert_eq!(batched[(t, r)].to_bits(), dot.to_bits(), "{at}: tile vs dot");
                    let every = reference_dot(ch, a.row(t), true);
                    assert_eq!(dot.to_bits(), every.to_bits(), "{at}: dot vs every-term walk");
                    let nonzero = reference_dot(ch, a.row(t), false);
                    assert_eq!(dot.to_bits(), nonzero.to_bits(), "{at}: dot vs nonzero-term walk");
                }
            }
        }
    }
}

/// The dequantizers' differential: for every length on both sides of two
/// block boundaries, every lane population of [`population_channels`]
/// (padding bits set) and the channel's own scales plus zero ones,
/// `dequantize_into` into a NaN-prefilled buffer (an unwritten lane fails)
/// and `dequantize()` are `to_bits`-equal to the table reference
/// `DECODE_INTS · (code != 0 ? s3 : s2)`.
///
/// One fold, under a **zero** scale only: a negative integer times `0.0`
/// is `-0.0`, while SWAR's `two·s2 + three·s3` sums it to `+0.0`. Both are
/// the same weight, and the quantizer cannot emit the case (a zero scale
/// quantizes every weight to 0) — peer bytes can. With the fold this test
/// also passed against the separate per-cluster `dequantize()` that
/// existed before it became allocate-then-`dequantize_into`.
#[test]
fn both_dequantizers_are_bit_equal_to_the_table_at_every_length() {
    let mut rng = Rng::seed_from(0xDE0A);
    for len in 0..=2 * WEIGHTS_PER_BLOCK + 1 {
        for (p, ch) in population_channels(len, &mut rng).channels().iter().enumerate() {
            for (s2, s3) in [(ch.scale2(), ch.scale3()), (0.0, 0.0), (0.7, 0.0), (0.0, 0.2)] {
                let ch = PackedChannel::from_raw_parts(s2, s3, len, ch.blocks().to_vec());
                let fold = s2 == 0.0 || s3 == 0.0;
                let bits = |v: &[f32]| -> Vec<u32> {
                    v.iter().map(|&x| if fold { x + 0.0 } else { x }.to_bits()).collect()
                };
                let reference: Vec<f32> = (0..len)
                    .map(|i| {
                        let (q, code) = lane_at(&ch, i);
                        q as f32 * if code != 0 { s3 } else { s2 }
                    })
                    .collect();
                let mut into = vec![f32::NAN; len];
                ch.dequantize_into(&mut into);
                let at = format!("len {len} population {p} scales ({s2}, {s3})");
                assert_eq!(bits(&into), bits(&reference), "{at}: dequantize_into");
                assert_eq!(bits(&ch.dequantize()), bits(&reference), "{at}: dequantize");
            }
        }
    }
}

/// Serving-level differential: complete scheduler runs over the packed
/// kernels at every thread × shard combination — admission, sampling,
/// retirement included — must be identical to the serial unsharded
/// reference, finished sequence for finished sequence.
#[test]
fn scheduler_runs_are_identical_at_all_thread_and_shard_counts() {
    let corpus = Corpus::wiki_like(64, 5);
    let (model, _) = build_fitted_model(&BuilderSpec::tiny(), &corpus, 3_000, 2);
    let cfg = PipelineConfig::default();
    let q = FineQuantizer::paper();
    let submit_all = |sub: &mut dyn FnMut(ServeRequest)| {
        for id in 0..6u64 {
            let prompt = corpus.generate(3 + id as usize % 4, 800 + id).tokens().to_vec();
            sub(ServeRequest {
                temperature: 0.85,
                seed: 640 + id,
                eos: Some(0),
                ..ServeRequest::new(id, prompt, 4 + id as usize % 3)
            });
        }
    };
    let reference = {
        let (mut sched, _) = serve_packed_with_threads(&model, &q, &cfg, 2, 1);
        submit_all(&mut |r| sched.submit(r).expect("no KV budget configured"));
        sched.run()
    };
    assert_eq!(reference.len(), 6);
    for threads in [1usize, 2, 4, 7] {
        let (mut sched, _) = serve_packed_with_threads(&model, &q, &cfg, 2, threads);
        submit_all(&mut |r| sched.submit(r).expect("no KV budget configured"));
        assert_eq!(sched.run(), reference, "unsharded @ {threads} threads");
        // The rebuild inherits the packed model's pool of `threads`.
        let packed = sched.model();
        for shards in [1usize, 2, 3, 5] {
            let mut sched = BatchScheduler::new(ShardPlan::new(packed, shards).rebuild(packed), 2);
            submit_all(&mut |r| sched.submit(r).expect("no KV budget configured"));
            assert_eq!(sched.run(), reference, "{shards} shards @ {threads} threads");
        }
    }
}
