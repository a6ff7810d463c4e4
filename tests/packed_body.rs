//! A packed matrix is its wire body.
//!
//! * **Layout oracle** — at every width 1..=50 × 1, 2 and 7 rows, on the
//!   zero, single-outlier and tie rows and on the narrow widths the
//!   quantizer's pinned hashes cover: the in-memory body is byte for byte
//!   what `to_bytes` writes after its 12-byte header, it parses back to an
//!   equal matrix, row slices appended back equal the source, and every
//!   channel view reads the scales, blocks and dot product the wire bytes
//!   encode (decoded here from the bytes alone, through `DECODE_INTS`).
//! * **Allocation guard** — a counting global allocator (per thread, so
//!   tests running in parallel do not mix their counts) pins that parsing
//!   a 512×1536 matrix allocates once for its body, never once per row,
//!   and that quantizing one allocates a constant number of buffers.

use fineq::core::pack::{BLOCK_BYTES, CLUSTERS_PER_BLOCK, DECODE_INTS};
use fineq::core::serialize::{from_bytes, to_bytes};
use fineq::core::{
    block_data_word, shard_from_bytes, shard_to_bytes, FineQuantizer, PackedMatrix, ShardHeader,
};
use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::tensor::{Matrix, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches only
// a thread-local `Cell<usize>`, which neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f()` and the allocations this thread made while running it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// One matrix of the benchmark's `quantize_pack` loop shape.
fn loop_matrix() -> Matrix {
    llm_like_matrix(512, 1536, &BuilderSpec::tiny(), &mut Rng::seed_from(1))
}

#[test]
fn parsing_allocates_once_for_the_body_never_per_row() {
    let packed = FineQuantizer::paper().quantize_packed(&loop_matrix());
    let bytes = to_bytes(&packed);
    let (parsed, n) = allocations(|| from_bytes(&bytes).expect("parses"));
    assert_eq!(parsed, packed);
    assert_eq!(n, 1, "from_bytes of 512 rows: one allocation, the body");

    let header =
        ShardHeader { shard_index: 0, n_shards: 1, site_id: 0, row_start: 0, total_rows: 512 };
    let envelope = shard_to_bytes(&packed, &header);
    let (parsed, n) = allocations(|| shard_from_bytes(&envelope).expect("parses"));
    assert_eq!(parsed, (header, packed));
    assert_eq!(n, 1, "shard_from_bytes of 512 rows: one allocation, the body");
}

#[test]
fn quantize_packed_allocates_a_constant_count_not_per_row() {
    let w = loop_matrix();
    let (packed, n) = allocations(|| FineQuantizer::paper().quantize_packed(&w));
    assert_eq!(packed.rows(), 512);
    assert!(n < 16, "quantize_packed of 512 rows made {n} allocations");
}

/// Channel `r` of a `to_bytes` blob, read from the bytes alone: its two
/// scales and its blocks.
fn wire_channel(bytes: &[u8], cols: usize, r: usize) -> (f32, f32, &[u8]) {
    let blocks = cols.div_ceil(3).div_ceil(CLUSTERS_PER_BLOCK) * BLOCK_BYTES;
    let row = &bytes[12 + r * (8 + blocks)..][..8 + blocks];
    let f32_at = |o: usize| f32::from_le_bytes(row[o..o + 4].try_into().expect("4 bytes"));
    (f32_at(0), f32_at(4), &row[8..])
}

/// The dot product the wire bytes of one channel encode: every lane
/// decoded through `DECODE_INTS`, its term added to the accumulator of
/// its cluster's scale class in lane order, then `s2·acc2 + s3·acc3`.
fn wire_dot((s2, s3, blocks): (f32, f32, &[u8]), x: &[f32]) -> f32 {
    let (mut acc2, mut acc3) = (0.0f32, 0.0f32);
    for (i, &xv) in x.iter().enumerate() {
        let (k, block) =
            (i / 3 % CLUSTERS_PER_BLOCK, &blocks[i / 3 / CLUSTERS_PER_BLOCK * BLOCK_BYTES..]);
        let code = ((block[0] >> (2 * (k / 2))) & 0b11) as usize;
        let six = ((block_data_word(&block[..BLOCK_BYTES]) >> (6 * k)) & 0x3F) as usize;
        let term = DECODE_INTS[code][six][i % 3] as f32 * xv;
        if code == 0 {
            acc2 += term;
        } else {
            acc3 += term;
        }
    }
    s2 * acc2 + s3 * acc3
}

/// Every property of the layout on one matrix.
fn check_layout(w: &Matrix, at: &str) {
    let m = FineQuantizer::paper().quantize_packed(w);
    let bytes = to_bytes(&m);
    assert_eq!(m.body(), &bytes[12..], "{at}: body == to_bytes after the header");
    assert_eq!(from_bytes(&bytes).as_ref(), Ok(&m), "{at}: from_bytes(to_bytes(m)) == m");

    let rows = m.rows();
    let one_by_one: Vec<u8> =
        (0..rows).flat_map(|r| m.slice_rows(r, r + 1).body().to_vec()).collect();
    assert_eq!(PackedMatrix::from_body(rows, m.cols(), one_by_one), m, "{at}: row slices");
    for cut in 1..rows {
        let body = [m.slice_rows(0, cut).body(), m.slice_rows(cut, rows).body()].concat();
        assert_eq!(PackedMatrix::from_body(rows, m.cols(), body), m, "{at}: cut at {cut}");
    }

    let mut rng = Rng::seed_from(rows as u64 * 1000 + m.cols() as u64);
    let x: Vec<f32> = (0..m.cols()).map(|_| rng.normal(0.0, 1.0)).collect();
    assert_eq!(m.channels().len(), rows);
    for (r, ch) in m.channels().enumerate() {
        let wire = wire_channel(&bytes, m.cols(), r);
        assert_eq!(ch, m.channel(r), "{at} row {r}: channels() and channel(r)");
        assert_eq!(ch.scale2().to_bits(), wire.0.to_bits(), "{at} row {r}: scale2");
        assert_eq!(ch.scale3().to_bits(), wire.1.to_bits(), "{at} row {r}: scale3");
        assert_eq!(ch.blocks(), wire.2, "{at} row {r}: blocks");
        assert_eq!(ch.dot(&x).to_bits(), wire_dot(wire, &x).to_bits(), "{at} row {r}: dot");
    }
}

#[test]
fn the_in_memory_body_is_the_wire_body() {
    let mut rng = Rng::seed_from(40);
    for cols in 1..=50 {
        for rows in [1usize, 2, 7] {
            let w = Matrix::from_fn(rows, cols, |_, _| {
                let v = rng.laplace(0.0, 0.05);
                if rng.chance(0.05) {
                    v * 12.0
                } else {
                    v
                }
            });
            check_layout(&w, &format!("{rows}x{cols}"));
        }
    }
    // The zero, single-outlier and tie rows of the quantizer's pinned test.
    let edge_rows = Matrix::from_rows(&[
        vec![0.0; 12],
        vec![0.01, 0.02, 0.03, 0.02, 0.9, 0.01, 0.03, 0.02, 0.01, 0.02, 0.03, 0.01],
        vec![3.0, 1.5, 0.5, -2.5, 1.5, -0.5, 0.5, -1.5, 2.5, 3.0, -3.0, 1.5],
        vec![-1.5, 1.5, -1.5, 0.5, -0.5, 0.5, 2.5, -2.5, 0.0, 3.0, 1.5, -0.5],
    ]);
    check_layout(&edge_rows, "edge rows");
    // Its narrow widths, drawn the same way.
    let mut rng = Rng::seed_from(7);
    for cols in [1usize, 2, 4, 5, 7, 25, 96] {
        let w = Matrix::from_fn(5, cols, |_, _| rng.laplace(0.0, 0.05));
        check_layout(&w, &format!("narrow 5x{cols}"));
    }
}
