//! A small deterministic RNG with stable output across platforms and
//! releases.
//!
//! Experiments such as the RingFlood reboot survey (§5.3) depend on
//! reproducing the *same* sequence of boot-time allocation jitter for a
//! given seed, so we implement `splitmix64` seeding + `xoshiro256**`
//! directly rather than relying on any external generator whose stream
//! might change between versions.

/// Deterministic xoshiro256** generator seeded via splitmix64.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// The splitmix64 output function: a bijection on `u64` in which every
/// input bit affects every output bit.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of shard `shard_id` from a campaign's base seed.
///
/// Shard 0 keeps the base seed untouched, so a 1-shard sharded campaign
/// draws *exactly* the stream of the legacy single-threaded engine and
/// their reports compare byte-for-byte. Every other shard gets a
/// splitmix64-mixed seed: a full-avalanche function of `(base, shard_id)`,
/// so shard streams are statistically independent even for adjacent ids
/// and a shard's whole trajectory stays a pure function of the pair.
pub fn shard_seed(base: u64, shard_id: u32) -> u64 {
    if shard_id == 0 {
        return base;
    }
    let mut sm = base ^ (u64::from(shard_id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut sm)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses rejection sampling to avoid modulo bias. `bound` of zero
    /// returns zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Returns a value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Returns `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Forks an independent generator (for per-subsystem streams).
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64())
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring it via
    /// [`DetRng::from_state`] resumes the stream at exactly this
    /// position — the "DetRng position" a campaign snapshot captures.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`DetRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(9);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = DetRng::new(3);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2000 {
            let v = rng.range(5, 8);
            assert!((5..=8).contains(&v));
            hit_lo |= v == 5;
            hit_hi |= v == 8;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = DetRng::new(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = DetRng::new(77);
        for _ in 0..13 {
            a.next_u64();
        }
        let saved = a.state();
        let tail: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let mut b = DetRng::from_state(saved);
        let resumed: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(tail, resumed, "restored state must continue bit-exactly");
    }

    #[test]
    fn shard_zero_is_the_base_seed() {
        for base in [0u64, 7, u64::MAX] {
            assert_eq!(shard_seed(base, 0), base);
        }
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u32 {
            assert!(seen.insert(shard_seed(7, id)), "shard {id} seed collided");
        }
        // And a function of the base, too.
        assert_ne!(shard_seed(7, 3), shard_seed(8, 3));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = DetRng::new(1234);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from 1000");
        }
    }
}
