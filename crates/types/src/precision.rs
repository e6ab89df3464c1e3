//! Candidate tensor-core input precisions.
//!
//! The TCUDB query optimizer (§4.2.1 of the paper) chooses the *most
//! compact* input data type that can represent the operands without losing
//! required accuracy: 16-bit half floats, 8-bit integers, or 4-bit
//! integers.  When none of those suffice, the engine falls back to the
//! conventional CPU/GPU plan (represented here as [`Precision::Fp32`],
//! which tensor cores of the paper's generation cannot consume).

use crate::f16::F16_MAX;

/// An input precision considered by the mixed-precision optimizer.
///
/// Ordered from most compact to least compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Precision {
    /// 4-bit signed integer (range −8 ..= 7). Supported by Turing/Ampere
    /// TCUs for experimental int4 GEMM.
    Int4,
    /// 8-bit signed integer (range −128 ..= 127), accumulated in int32.
    Int8,
    /// IEEE-754 binary16, accumulated in fp32.  The default TCU precision.
    #[default]
    Half,
    /// 32-bit float: *not* a TCU input type on the paper's hardware; used
    /// to denote the CPU/GPU fallback path.
    Fp32,
}

impl Precision {
    /// Size of one element of this precision in bytes (int4 is counted as
    /// half a byte, rounded up per element when stored unpacked; we report
    /// the packed size used for data-movement estimates).
    pub fn size_bytes(self) -> f64 {
        match self {
            Precision::Int4 => 0.5,
            Precision::Int8 => 1.0,
            Precision::Half => 2.0,
            Precision::Fp32 => 4.0,
        }
    }

    /// Maximum magnitude exactly representable for *integer* payloads.
    ///
    /// For `Half` this is 2^11 = 2048: every integer up to 2048 maps to a
    /// distinct binary16 value, beyond which consecutive integers start to
    /// collide (this is what produces the non-zero MAPE rows of Table 1).
    pub fn exact_int_limit(self) -> f64 {
        match self {
            Precision::Int4 => 7.0,
            Precision::Int8 => 127.0,
            Precision::Half => 2048.0,
            Precision::Fp32 => 16_777_216.0, // 2^24
        }
    }

    /// Maximum representable magnitude (values beyond this overflow).
    pub fn max_value(self) -> f64 {
        match self {
            Precision::Int4 => 7.0,
            Precision::Int8 => 127.0,
            Precision::Half => F16_MAX as f64,
            Precision::Fp32 => f32::MAX as f64,
        }
    }

    /// Is this a precision that the simulated TCU can consume directly?
    pub fn is_tcu_native(self) -> bool {
        !matches!(self, Precision::Fp32)
    }

    /// All TCU-native precisions ordered from most to least compact, the
    /// order in which the optimizer's feasibility test tries them
    /// (Figure 6: 4bit? → 8bit? → 16bit?).
    pub fn tcu_candidates() -> [Precision; 3] {
        [Precision::Int4, Precision::Int8, Precision::Half]
    }

    /// Pick the most compact TCU-native precision whose range covers
    /// `[min, max]` for exact-integer inputs, or `None` when no TCU type
    /// is feasible (the query then falls back to CPU/GPU execution).
    pub fn most_compact_for_range(min: f64, max: f64) -> Option<Precision> {
        let magnitude = min.abs().max(max.abs());
        Precision::tcu_candidates()
            .into_iter()
            .find(|p| magnitude <= p.exact_int_limit())
    }

    /// Like [`Precision::most_compact_for_range`] but allows lossy
    /// half-precision representation of large values as long as they do not
    /// overflow binary16.  Used when the optimizer is willing to trade a
    /// bounded relative error for TCU acceleration.
    pub fn most_compact_lossy_for_range(min: f64, max: f64) -> Option<Precision> {
        let magnitude = min.abs().max(max.abs());
        Precision::tcu_candidates()
            .into_iter()
            .find(|p| magnitude <= p.max_value())
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Int4 => "int4",
            Precision::Int8 => "int8",
            Precision::Half => "half",
            Precision::Fp32 => "fp32",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_monotonic() {
        assert!(Precision::Int4.size_bytes() < Precision::Int8.size_bytes());
        assert!(Precision::Int8.size_bytes() < Precision::Half.size_bytes());
        assert!(Precision::Half.size_bytes() < Precision::Fp32.size_bytes());
    }

    #[test]
    fn candidate_order_is_compact_first() {
        let c = Precision::tcu_candidates();
        assert_eq!(c[0], Precision::Int4);
        assert_eq!(c[1], Precision::Int8);
        assert_eq!(c[2], Precision::Half);
    }

    #[test]
    fn most_compact_selection() {
        assert_eq!(
            Precision::most_compact_for_range(0.0, 1.0),
            Some(Precision::Int4)
        );
        assert_eq!(
            Precision::most_compact_for_range(-100.0, 100.0),
            Some(Precision::Int8)
        );
        assert_eq!(
            Precision::most_compact_for_range(0.0, 2000.0),
            Some(Precision::Half)
        );
        // Beyond the exact-integer range of binary16 nothing qualifies.
        assert_eq!(Precision::most_compact_for_range(0.0, 1e6), None);
    }

    #[test]
    fn lossy_selection_allows_half_up_to_f16_max() {
        assert_eq!(
            Precision::most_compact_lossy_for_range(0.0, 60000.0),
            Some(Precision::Half)
        );
        assert_eq!(Precision::most_compact_lossy_for_range(0.0, 1e6), None);
    }

    #[test]
    fn tcu_native_flags() {
        assert!(Precision::Int4.is_tcu_native());
        assert!(Precision::Int8.is_tcu_native());
        assert!(Precision::Half.is_tcu_native());
        assert!(!Precision::Fp32.is_tcu_native());
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Half.to_string(), "half");
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::Int4.to_string(), "int4");
        assert_eq!(Precision::Fp32.to_string(), "fp32");
    }
}
