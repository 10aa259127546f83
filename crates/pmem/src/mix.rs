//! SplitMix64 (Steele, Lea and Flood, 2014): the one integer mixer of the
//! workspace.
//!
//! Three of its users are **on-disk formats** — the op-descriptor arm
//! checksum (`nvtraverse_pool::optable::descriptor_check`), the SOFT
//! header seals and sharded-set key routing — so neither function may
//! change: a pool written by one build must verify, validate and route
//! identically under the next. The tests pin both to fixed vectors.

/// The SplitMix64 increment, `2^64 / φ` rounded to odd.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective avalanche of `x` (and
/// `finalize(0) == 0`).
#[inline]
pub fn finalize(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One SplitMix64 step from state `x`: `finalize(x + GOLDEN)`, the
/// reference generator's first output when seeded with `x`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
        assert_eq!(finalize(0), 0);
        assert_eq!(finalize(1), 0x5692_161D_100B_05E5);
        assert_eq!(finalize(u64::MAX), 0xB4D0_55FC_F2CB_BD7B);
    }
}
