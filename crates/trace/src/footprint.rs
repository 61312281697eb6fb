//! Interned access footprints: the shared-object sets of a critical section.
//!
//! The ULCP detector's hot path is deciding whether two critical sections
//! conflict, which reduces to set-intersection tests over their read/write
//! sets. A [`Footprint`] stores those sets as a sorted, deduplicated object
//! list plus a 64-bit *summary word* (a one-word Bloom filter): each object
//! hashes to one of 64 bits, and two footprints can only intersect if the
//! bitwise AND of their summaries is non-zero. The common case in ULCP
//! analysis — sections touching *different* objects — is therefore rejected
//! with a single AND before any list walk happens.
//!
//! ```
//! use perfplay_trace::{Footprint, ObjectId};
//!
//! let a: Footprint = [ObjectId::new(1), ObjectId::new(2)].into_iter().collect();
//! let b: Footprint = [ObjectId::new(2)].into_iter().collect();
//! let c: Footprint = [ObjectId::new(9)].into_iter().collect();
//! assert!(a.intersects(&b));
//! assert!(!a.intersects(&c));
//! assert!(a.contains(ObjectId::new(1)));
//! assert_eq!(a.len(), 2);
//! ```

use serde::{DeError, Deserialize, Serialize, Value};

use crate::ids::ObjectId;

/// A sorted, summary-indexed set of shared objects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Sorted, deduplicated object list.
    objs: Vec<ObjectId>,
    /// One-word Bloom summary over the objects; kept consistent with `objs`.
    summary: u64,
}

/// Hashes an object id onto one of the 64 summary bits.
fn summary_bit(obj: ObjectId) -> u64 {
    // Multiplicative (Fibonacci) hash; the top six bits select the slot so
    // that dense id ranges still spread across the word.
    1u64 << (obj.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl Footprint {
    /// Creates an empty footprint.
    pub fn new() -> Self {
        Footprint::default()
    }

    /// Builds a footprint from an unsorted object list, sorting and
    /// deduplicating it.
    pub fn from_unsorted(mut objs: Vec<ObjectId>) -> Self {
        objs.sort_unstable();
        objs.dedup();
        let summary = objs.iter().map(|&o| summary_bit(o)).fold(0, |a, b| a | b);
        Footprint { objs, summary }
    }

    /// Inserts an object, keeping the list sorted. Returns true if the object
    /// was not already present.
    pub fn insert(&mut self, obj: ObjectId) -> bool {
        match self.objs.binary_search(&obj) {
            Ok(_) => false,
            Err(pos) => {
                self.objs.insert(pos, obj);
                self.summary |= summary_bit(obj);
                true
            }
        }
    }

    /// Returns true if the footprint contains the object.
    pub fn contains(&self, obj: ObjectId) -> bool {
        self.summary & summary_bit(obj) != 0 && self.objs.binary_search(&obj).is_ok()
    }

    /// Number of distinct objects in the footprint.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// Returns true if the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Iterates over the objects in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objs.iter().copied()
    }

    /// The sorted object list as a slice.
    pub fn as_slice(&self) -> &[ObjectId] {
        &self.objs
    }

    /// The 64-bit Bloom summary word over the objects.
    ///
    /// If `a.summary() & b.summary() == 0` the two footprints are certainly
    /// disjoint; a non-zero AND says nothing (bits collide). An empty
    /// footprint has summary `0`, and every non-empty footprint has a
    /// non-zero summary, so `summary() == 0` is equivalent to
    /// [`is_empty`](Self::is_empty). Consumers can therefore classify the
    /// overwhelmingly common disjoint case from two words without touching
    /// the object lists.
    pub fn summary(&self) -> u64 {
        self.summary
    }

    /// Returns true if the two footprints share at least one object.
    ///
    /// The summary AND rejects disjoint footprints in O(1); surviving pairs
    /// fall back to an O(min(n, m)) walk — a galloping binary-search probe
    /// when one side is much smaller, a linear merge otherwise.
    pub fn intersects(&self, other: &Footprint) -> bool {
        if self.summary & other.summary == 0 {
            return false;
        }
        let (small, large) = if self.objs.len() <= other.objs.len() {
            (&self.objs, &other.objs)
        } else {
            (&other.objs, &self.objs)
        };
        if small.is_empty() {
            return false;
        }
        // Probe mode: each small element costs O(log |large|), which wins
        // when the size imbalance is bigger than the log factor.
        if small.len() * 16 < large.len() {
            return small.iter().any(|o| large.binary_search(o).is_ok());
        }
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl FromIterator<ObjectId> for Footprint {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        Footprint::from_unsorted(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Footprint {
    type Item = ObjectId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ObjectId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.objs.iter().copied()
    }
}

// The wire format is the plain object array; the summary word is an index
// and is rebuilt on deserialization.
impl Serialize for Footprint {
    fn to_value(&self) -> Value {
        self.objs.to_value()
    }
}

impl Deserialize for Footprint {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Footprint::from_unsorted(Vec::<ObjectId>::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(ids: &[u64]) -> Footprint {
        Footprint::from_unsorted(ids.iter().map(|&i| ObjectId::new(i)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let f = fp(&[5, 1, 3, 1, 5]);
        assert_eq!(f.len(), 3);
        assert_eq!(
            f.iter().collect::<Vec<_>>(),
            vec![ObjectId::new(1), ObjectId::new(3), ObjectId::new(5)]
        );
    }

    #[test]
    fn insert_and_contains() {
        let mut f = Footprint::new();
        assert!(f.is_empty());
        assert!(f.insert(ObjectId::new(4)));
        assert!(f.insert(ObjectId::new(2)));
        assert!(!f.insert(ObjectId::new(4)));
        assert_eq!(f.len(), 2);
        assert!(f.contains(ObjectId::new(2)));
        assert!(!f.contains(ObjectId::new(3)));
        assert_eq!(f.as_slice(), &[ObjectId::new(2), ObjectId::new(4)]);
    }

    #[test]
    fn intersects_matches_naive_set_semantics() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[3, 4]);
        let c = fp(&[7, 8]);
        let empty = Footprint::new();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&empty));
        assert!(!empty.intersects(&empty));
    }

    #[test]
    fn intersects_galloping_path_and_summary_collisions() {
        // A large footprint forces the probe path for small counterparts and
        // exercises summary-bit collisions among many ids.
        let large = Footprint::from_unsorted((0..2_000).map(ObjectId::new).collect());
        let hit = fp(&[1_999]);
        let miss = fp(&[2_001]);
        assert!(large.intersects(&hit));
        // `miss` may collide in the summary word; the list walk must still
        // reject it.
        assert!(!large.intersects(&miss));
    }

    #[test]
    fn equality_ignores_construction_order() {
        assert_eq!(fp(&[2, 1]), fp(&[1, 2, 2]));
        assert_ne!(fp(&[1]), fp(&[2]));
    }

    #[test]
    fn serde_roundtrip_rebuilds_summary() {
        let f = fp(&[10, 20, 30]);
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(json, "[10,20,30]");
        let back: Footprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        assert!(back.intersects(&fp(&[20])));
    }
}
