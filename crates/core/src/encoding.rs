//! Per-cluster encoding schemes.
//!
//! The paper's step 5 (Fig. 4) assigns a 2-bit code to each cluster:
//!
//! | code | layout | meaning |
//! |---|---|---|
//! | `00` | `(2b, 2b, 2b)` | normal cluster: all three values at 2 bits |
//! | `01` | `(0, 3b, 3b)`  | first value sacrificed, rest at 3 bits |
//! | `10` | `(3b, 0, 3b)`  | second value sacrificed |
//! | `11` | `(3b, 3b, 0)`  | third value sacrificed |

/// The four cluster layouts, with their exact 2-bit wire encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ClusterCode {
    /// `00`: all three values stored at 2 bits.
    AllTwoBit = 0b00,
    /// `01`: first value is zero, the other two stored at 3 bits.
    ZeroFirst = 0b01,
    /// `10`: second value is zero, the other two stored at 3 bits.
    ZeroSecond = 0b10,
    /// `11`: third value is zero, the other two stored at 3 bits.
    ZeroThird = 0b11,
}

impl ClusterCode {
    /// All four codes, in wire order.
    pub const ALL: [ClusterCode; 4] = [
        ClusterCode::AllTwoBit,
        ClusterCode::ZeroFirst,
        ClusterCode::ZeroSecond,
        ClusterCode::ZeroThird,
    ];

    /// The 2-bit wire value.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// Parses a 2-bit wire value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    pub fn from_bits(bits: u8) -> ClusterCode {
        match bits {
            0b00 => ClusterCode::AllTwoBit,
            0b01 => ClusterCode::ZeroFirst,
            0b10 => ClusterCode::ZeroSecond,
            0b11 => ClusterCode::ZeroThird,
            _ => panic!("cluster code must be 2 bits, got {bits}"),
        }
    }

    /// Whether this code applies the 3-bit outlier-protection layout.
    pub fn is_outlier(self) -> bool {
        !matches!(self, ClusterCode::AllTwoBit)
    }

    /// For outlier codes, the in-cluster position (0..3) whose value is
    /// sacrificed; `None` for the normal layout.
    pub fn zeroed_position(self) -> Option<usize> {
        match self {
            ClusterCode::AllTwoBit => None,
            ClusterCode::ZeroFirst => Some(0),
            ClusterCode::ZeroSecond => Some(1),
            ClusterCode::ZeroThird => Some(2),
        }
    }

    /// The outlier code that sacrifices the given position.
    ///
    /// # Panics
    ///
    /// Panics if `pos > 2`.
    pub fn zeroing(pos: usize) -> ClusterCode {
        match pos {
            0 => ClusterCode::ZeroFirst,
            1 => ClusterCode::ZeroSecond,
            2 => ClusterCode::ZeroThird,
            _ => panic!("cluster position must be 0..3, got {pos}"),
        }
    }

    /// Bit-width used for the value at `pos` under this code (0 means the
    /// value is not stored).
    pub fn bit_width_at(self, pos: usize) -> u8 {
        assert!(pos < 3, "cluster position must be 0..3");
        match self.zeroed_position() {
            None => 2,
            Some(z) if z == pos => 0,
            Some(_) => 3,
        }
    }
}

impl std::fmt::Display for ClusterCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ClusterCode::AllTwoBit => "(2b,2b,2b)",
            ClusterCode::ZeroFirst => "(0b,3b,3b)",
            ClusterCode::ZeroSecond => "(3b,0b,3b)",
            ClusterCode::ZeroThird => "(3b,3b,0b)",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_values_match_paper_table() {
        assert_eq!(ClusterCode::AllTwoBit.bits(), 0b00);
        assert_eq!(ClusterCode::ZeroFirst.bits(), 0b01);
        assert_eq!(ClusterCode::ZeroSecond.bits(), 0b10);
        assert_eq!(ClusterCode::ZeroThird.bits(), 0b11);
    }

    #[test]
    fn from_bits_round_trips() {
        for code in ClusterCode::ALL {
            assert_eq!(ClusterCode::from_bits(code.bits()), code);
        }
    }

    #[test]
    #[should_panic(expected = "2 bits")]
    fn from_bits_rejects_wide_values() {
        let _ = ClusterCode::from_bits(4);
    }

    #[test]
    fn zeroed_position_matches_layout() {
        assert_eq!(ClusterCode::AllTwoBit.zeroed_position(), None);
        assert_eq!(ClusterCode::ZeroFirst.zeroed_position(), Some(0));
        assert_eq!(ClusterCode::ZeroSecond.zeroed_position(), Some(1));
        assert_eq!(ClusterCode::ZeroThird.zeroed_position(), Some(2));
    }

    #[test]
    fn zeroing_is_inverse_of_zeroed_position() {
        for pos in 0..3 {
            assert_eq!(ClusterCode::zeroing(pos).zeroed_position(), Some(pos));
        }
    }

    #[test]
    fn bit_widths_per_position() {
        assert_eq!(ClusterCode::ZeroSecond.bit_width_at(0), 3);
        assert_eq!(ClusterCode::ZeroSecond.bit_width_at(1), 0);
        assert_eq!(ClusterCode::ZeroSecond.bit_width_at(2), 3);
        for p in 0..3 {
            assert_eq!(ClusterCode::AllTwoBit.bit_width_at(p), 2);
        }
    }

    #[test]
    fn outlier_flag() {
        assert!(!ClusterCode::AllTwoBit.is_outlier());
        assert!(ClusterCode::ZeroFirst.is_outlier());
    }

    #[test]
    fn display_shows_layout() {
        assert_eq!(ClusterCode::ZeroSecond.to_string(), "(3b,0b,3b)");
    }
}
