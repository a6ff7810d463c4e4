//! Hardware weight-decoder model (paper Fig. 6).
//!
//! Each decoder consumes one 7-byte packed block (1 index byte + 6 data
//! bytes, the format produced by `fineq-core`) and emits, per cluster,
//! three sign-magnitude weights tagged with their scale class. The MUX
//! structure of Fig. 6 selects either three 2-bit fields or two 3-bit
//! fields plus a constant `000` for the sacrificed position; 2-bit fields
//! are zero-extended to 3 bits.
//!
//! This is implemented directly on the packed bytes, independently of the
//! `fineq-core` unpacking code, so the two act as cross-checks on the
//! wire format.

use fineq_core::pack::{BLOCK_BYTES, CLUSTERS_PER_BLOCK};

/// One decoded weight lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedWeight {
    /// Sign bit (true = negative).
    pub negative: bool,
    /// Magnitude (0..=3 after zero-extension).
    pub magnitude: u8,
    /// Whether the field was a 3-bit (outlier) field — selects the `s3`
    /// accumulator; 2-bit fields use `s2`.
    pub three_bit: bool,
}

impl DecodedWeight {
    /// The signed integer value of the lane.
    pub fn signed(&self) -> i32 {
        if self.negative {
            -(self.magnitude as i32)
        } else {
            self.magnitude as i32
        }
    }
}

/// Behavioural model of one Fig. 6 decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardwareDecoder {
    clusters_decoded: u64,
}

impl HardwareDecoder {
    /// A fresh decoder with zeroed activity counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clusters decoded so far (one decoder cycle each).
    pub fn clusters_decoded(&self) -> u64 {
        self.clusters_decoded
    }

    /// Decodes a 7-byte block into `8 clusters x 3 lanes`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not exactly [`BLOCK_BYTES`] long.
    pub fn decode_block(&mut self, block: &[u8]) -> [[DecodedWeight; 3]; CLUSTERS_PER_BLOCK] {
        assert_eq!(block.len(), BLOCK_BYTES, "decoder consumes 7-byte blocks");
        let index = block[0];
        let mut data = 0u64;
        for i in 0..6 {
            data |= (block[1 + i] as u64) << (8 * i);
        }
        let zero = DecodedWeight { negative: false, magnitude: 0, three_bit: false };
        let mut out = [[zero; 3]; CLUSTERS_PER_BLOCK];
        for (k, lanes) in out.iter_mut().enumerate() {
            let code = (index >> (2 * (k / 2))) & 0b11;
            let six = ((data >> (6 * k)) & 0x3F) as u8;
            *lanes = Self::decode_cluster(code, six);
            self.clusters_decoded += 1;
        }
        out
    }

    /// The Fig. 6 MUX network for one cluster.
    fn decode_cluster(code: u8, six: u8) -> [DecodedWeight; 3] {
        let two_bit = |field: u8| DecodedWeight {
            negative: (field >> 1) & 1 == 1,
            magnitude: field & 1, // zero-extended to 3 bits
            three_bit: false,
        };
        let three_bit = |field: u8| DecodedWeight {
            negative: (field >> 2) & 1 == 1,
            magnitude: field & 0b11,
            three_bit: true,
        };
        let zero = DecodedWeight { negative: false, magnitude: 0, three_bit: true };
        match code {
            0b00 => [two_bit(six & 0b11), two_bit((six >> 2) & 0b11), two_bit((six >> 4) & 0b11)],
            0b01 => [zero, three_bit(six & 0b111), three_bit((six >> 3) & 0b111)],
            0b10 => [three_bit(six & 0b111), zero, three_bit((six >> 3) & 0b111)],
            0b11 => [three_bit(six & 0b111), three_bit((six >> 3) & 0b111), zero],
            _ => unreachable!("2-bit code"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fineq_core::{ClusterCode, PackedChannel};

    fn packed_demo() -> PackedChannel {
        let codes = [ClusterCode::AllTwoBit, ClusterCode::ZeroSecond, ClusterCode::ZeroThird];
        let q = [[1, -1, 0], [0, 1, 1], [3, 0, -2], [-3, 0, 1], [2, -2, 0]];
        PackedChannel::pack(0.3, 0.1, 15, &codes, &q)
    }

    /// Exhaustive cross-check of the Fig. 6 MUX network against the
    /// decode table every per-cluster software reader uses
    /// (`fineq_core::pack::DECODE_INTS`): every (code, data-bits)
    /// combination must agree, so the hardware model and the packed
    /// execution engine provably read the wire format identically.
    #[test]
    fn mux_decode_matches_shared_decode_table() {
        for code in 0..4u8 {
            for six in 0..64u8 {
                let lanes = HardwareDecoder::decode_cluster(code, six);
                let expect = fineq_core::pack::DECODE_INTS[code as usize][six as usize];
                for (j, lane) in lanes.iter().enumerate() {
                    assert_eq!(
                        lane.signed(),
                        expect[j] as i32,
                        "code {code:02b} six {six:06b} lane {j}"
                    );
                }
                // Scale class must match the per-code lane widths too.
                for (j, lane) in lanes.iter().enumerate() {
                    let width = ClusterCode::from_bits(code).bit_width_at(j);
                    assert_eq!(lane.three_bit, width != 2, "code {code:02b} lane {j}");
                }
            }
        }
    }

    /// The Fig. 6 MUX model against the software SWAR wide-word decoder
    /// (`fineq_core::decode_block_swar`) over random whole blocks: signed
    /// lane values must agree, and every lane's scale class must match the
    /// SWAR width split (a 2-bit lane decodes into the `two` array, a
    /// 3-bit lane into `three`, a sacrificed lane into neither). Together
    /// with `mux_decode_matches_shared_decode_table` and the exhaustive
    /// SWAR-vs-table check in `tests/swar_decode.rs` this closes the
    /// triangle MUX == table == SWAR over the three readers of the wire
    /// format.
    #[test]
    fn mux_decode_matches_swar_block_decode() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // xorshift64: deterministic block bytes without a tensor dep.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let word = next();
            let mut block = [0u8; BLOCK_BYTES];
            block[0] = (word >> 48) as u8;
            block[1..].copy_from_slice(&word.to_le_bytes()[..6]);
            let mut dec = HardwareDecoder::new();
            let lanes = dec.decode_block(&block);
            let (two, three) =
                fineq_core::decode_block_swar(block[0], fineq_core::block_data_word(&block));
            for (k, cluster) in lanes.iter().enumerate() {
                for (j, lane) in cluster.iter().enumerate() {
                    let i = k * 3 + j;
                    assert_eq!(
                        (two[i] + three[i]) as i32,
                        lane.signed(),
                        "block {block:?} cluster {k} lane {j}"
                    );
                    if lane.three_bit {
                        assert_eq!(two[i], 0, "3-bit/sacrificed lane leaked into `two`");
                    } else {
                        assert_eq!(three[i], 0, "2-bit lane leaked into `three`");
                    }
                }
            }
        }
    }

    #[test]
    fn decoder_agrees_with_software_unpacker() {
        let ch = packed_demo();
        let mut dec = HardwareDecoder::new();
        let lanes = dec.decode_block(&ch.blocks()[0..7]);
        for (k, cluster) in lanes.iter().enumerate().take(ch.n_clusters()) {
            let expect = ch.cluster_ints(k);
            for (j, lane) in cluster.iter().enumerate() {
                assert_eq!(lane.signed(), expect[j], "cluster {k} lane {j}");
            }
        }
    }

    #[test]
    fn scale_class_follows_the_code() {
        let ch = packed_demo();
        let mut dec = HardwareDecoder::new();
        let lanes = dec.decode_block(&ch.blocks()[0..7]);
        // Cluster 0 is 2-bit; cluster 2 is an outlier cluster.
        assert!(lanes[0].iter().all(|w| !w.three_bit));
        assert!(lanes[2].iter().all(|w| w.three_bit));
    }

    #[test]
    fn sacrificed_lane_is_constant_zero() {
        let ch = packed_demo();
        let mut dec = HardwareDecoder::new();
        let lanes = dec.decode_block(&ch.blocks()[0..7]);
        // Cluster 2 uses code 10 (second value zeroed).
        assert_eq!(lanes[2][1].magnitude, 0);
        assert!(!lanes[2][1].negative);
    }

    #[test]
    fn activity_counter_tracks_clusters() {
        let ch = packed_demo();
        let mut dec = HardwareDecoder::new();
        let _ = dec.decode_block(&ch.blocks()[0..7]);
        assert_eq!(dec.clusters_decoded(), 8);
    }

    #[test]
    #[should_panic(expected = "7-byte blocks")]
    fn wrong_block_size_panics() {
        let mut dec = HardwareDecoder::new();
        let _ = dec.decode_block(&[0u8; 6]);
    }

    #[test]
    fn all_two_bit_magnitudes_fit_one_bit() {
        let codes = [ClusterCode::AllTwoBit];
        let q = [[1, 0, -1], [0, 0, 0]];
        let ch = PackedChannel::pack(1.0, 1.0 / 3.0, 6, &codes, &q[..2]);
        let mut dec = HardwareDecoder::new();
        let lanes = dec.decode_block(&ch.blocks()[0..7]);
        for lane in &lanes[0] {
            assert!(lane.magnitude <= 1);
        }
    }
}
