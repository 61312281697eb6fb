//! The crate's one hash function for integer-keyed tables.
//!
//! The last-write index both detection engines keep is hit once per
//! shared-memory event, and the site aggregator's packed `(site, site)`
//! tables once per classified pair. SipHash's flooding resistance buys
//! little there — the keys are object and code-site ids of a recorded
//! program, and a trace or aggregate file crafted to collide can only slow
//! a run, never change its result. One odd-constant multiply with a
//! high-bit fold spreads the dense id space uniformly at a fraction of
//! SipHash's cost.

/// Multiplicative hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// `BuildHasher` for [`IdHasher`]-keyed `HashMap`s.
pub(crate) type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;
