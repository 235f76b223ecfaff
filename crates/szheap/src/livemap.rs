//! An open-addressed live-allocation table for the shuffling layer and
//! the segregated and TLSF base allocators.
//!
//! [`crate::ShuffleLayer`] and [`crate::SegregatedAllocator`] must
//! remember the requested size of every address they have handed out
//! so `free` can route the object back to its size class;
//! [`crate::TlsfAllocator`] maps each live address to its block's slab
//! index. A `HashMap<u64, u64>` does the job but pays SipHash plus
//! bucket indirection on *every* malloc and free — the two operations
//! STABILIZER's shuffling adds to each heap call. This
//! table exploits what the generic map cannot: keys are aligned
//! simulated addresses (the segregated base aligns every block to its
//! power-of-two class, 16 bytes minimum; TLSF's blocks are 16-byte
//! aligned), so a single multiplicative hash of the address scatters
//! them uniformly, and linear probing over one flat slab stays in
//! cache.
//!
//! Deletion uses backward-shift compaction rather than tombstones, so
//! the table never degrades no matter how many malloc/free cycles a
//! workload performs. All operations are deterministic: identical
//! call sequences leave identical tables.

/// Slot key marking an empty slot. No real key collides with it: a
/// live allocation of at least one byte based at `u64::MAX` would
/// overflow the address space.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `address -> u64` map (a requested size, or for
/// TLSF a slab index).
#[derive(Debug, Clone)]
pub struct LiveMap {
    keys: Box<[u64]>,
    vals: Box<[u64]>,
    /// Live entries.
    len: usize,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

impl Default for LiveMap {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveMap {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_pow2_capacity(64)
    }

    fn with_pow2_capacity(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        LiveMap {
            keys: vec![EMPTY; capacity].into_boxed_slice(),
            vals: vec![0; capacity].into_boxed_slice(),
            len: 0,
            mask: capacity - 1,
        }
    }

    /// Live entries in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot for a key: multiplicative hash folded to the table
    /// size. The multiply mixes the (always-zero) low alignment bits
    /// of the address into every output bit.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(HASH_MUL);
        (h >> 32) as usize & self.mask
    }

    /// Inserts `key -> val`, replacing any previous value for `key`.
    pub fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY, "u64::MAX is not a valid address");
        // Resize at 7/8 load to keep probe chains short.
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            if self.keys[i] == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up the value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value, or `None` if absent.
    ///
    /// Uses backward-shift deletion: every entry in the probe cluster
    /// after the hole is moved back if (and only if) the hole lies on
    /// its probe path, so lookups never need tombstones.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let val = self.vals[i];
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.keys[j] == EMPTY {
                break;
            }
            let home = self.home(self.keys[j]);
            // `j`'s entry may fill the hole iff its home precedes the
            // hole on the cyclic probe path ending at `j`.
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(val)
    }

    /// Makes room for `additional` more keys with at most one resize:
    /// the table grows straight to the capacity that many inserts of
    /// new keys would have doubled it to.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        let mut capacity = self.mask + 1;
        while need * 8 > capacity * 7 {
            capacity *= 2;
        }
        if capacity > self.mask + 1 {
            self.rehash(capacity);
        }
    }

    fn grow(&mut self) {
        self.rehash((self.mask + 1) * 2);
    }

    fn rehash(&mut self, capacity: usize) {
        let mut bigger = Self::with_pow2_capacity(capacity);
        for (&k, &v) in self.keys.iter().zip(self.vals.iter()) {
            if k != EMPTY {
                bigger.insert(k, v);
            }
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = LiveMap::new();
        m.insert(0x1000, 64);
        m.insert(0x2000, 128);
        assert_eq!(m.get(0x1000), Some(64));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(0x1000), Some(64));
        assert_eq!(m.get(0x1000), None);
        assert_eq!(m.remove(0x1000), None);
        assert_eq!(m.get(0x2000), Some(128));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_overwrites_like_a_map() {
        let mut m = LiveMap::new();
        m.insert(0x40, 1);
        m.insert(0x40, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(0x40), Some(2));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = LiveMap::new();
        for i in 0..10_000u64 {
            m.insert(0x10_0000 + i * 16, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(0x10_0000 + i * 16), Some(i));
        }
    }

    #[test]
    fn reserve_grows_once_to_the_capacity_inserts_reach() {
        for (before, additional) in [(0, 0), (0, 56), (0, 57), (0, 256), (40, 300), (500, 1)] {
            let mut grown = LiveMap::new();
            let mut reserved = LiveMap::new();
            for i in 0..before as u64 {
                grown.insert(i * 16, i);
                reserved.insert(i * 16, i);
            }
            reserved.reserve(additional);
            let capacity = reserved.mask + 1;
            for i in before as u64..(before + additional) as u64 {
                grown.insert(i * 16, i);
                reserved.insert(i * 16, i);
            }
            assert_eq!(reserved.mask + 1, capacity, "no grow after reserve");
            assert_eq!(reserved.mask, grown.mask, "{before} + {additional}");
            for i in 0..(before + additional) as u64 {
                assert_eq!(reserved.get(i * 16), Some(i));
            }
        }
    }

    #[test]
    fn backward_shift_keeps_clusters_probeable() {
        // Force a dense cluster, delete from its middle, and verify
        // every survivor is still reachable.
        let mut m = LiveMap::with_pow2_capacity(16);
        let keys: Vec<u64> = (1..=13u64).map(|i| i * 16).collect();
        for &k in &keys {
            m.insert(k, k + 1);
        }
        for &k in &keys {
            assert_eq!(m.remove(k), Some(k + 1), "key {k:#x}");
            for &other in &keys {
                if other > k {
                    assert_eq!(
                        m.get(other),
                        Some(other + 1),
                        "lost {other:#x} after removing {k:#x}"
                    );
                }
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    fn zero_address_and_zero_value_are_legal() {
        let mut m = LiveMap::new();
        m.insert(0, 0);
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.remove(0), Some(0));
    }

    #[test]
    fn matches_hashmap_over_a_random_history() {
        // Differential check against std's map over a pseudo-random
        // insert/remove interleaving (SplitMix64 stream, fixed seed).
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut ours = LiveMap::new();
        let mut reference = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let r = next();
            let key = (r >> 8) % 4096 * 16; // class-aligned, collision-heavy
            if r % 3 == 0 {
                assert_eq!(ours.remove(key), reference.remove(&key));
            } else {
                ours.insert(key, r);
                reference.insert(key, r);
            }
            assert_eq!(ours.len(), reference.len());
        }
        for (&k, &v) in &reference {
            assert_eq!(ours.get(k), Some(v));
        }
    }
}
