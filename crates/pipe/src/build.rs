//! Morsel-local parallel hash-table build with a deterministic merge.
//!
//! The table is flat (CSR-shaped): each hash-partitioned shard holds one
//! `rows` array, and an index maps a key hash to its `(start, len)` slice
//! of it, so a build allocates O(shards × morsels) times, never once per
//! key. Each morsel of build rows emits its `(hash, row)` pairs per
//! target shard, in row order; each shard then walks its pairs **in
//! morsel order** twice — once counting rows per hash, once placing each
//! row at its hash's cursor (a counting sort by hash). Because morsels
//! cover ascending row ranges and rows within a morsel are visited in
//! order, every key's slice is the ascending row order a sequential
//! build would have produced — regardless of thread count, scheduling,
//! or the iteration order of the index (which only decides where a
//! slice sits in `rows`, never what it holds).

use maybms_engine::hash::FastMap;
use maybms_par::ThreadPool;

/// One hash-partitioned shard: every key's build rows, contiguous and
/// ascending, sliced through `index`.
#[derive(Debug)]
struct Shard {
    /// Key hash → `(start, len)` of its slice of `rows`.
    index: FastMap<u64, (u32, u32)>,
    rows: Vec<u32>,
}

/// A hash-partitioned join build table: key hash → build-row indices in
/// ascending (sequential insertion) order.
#[derive(Debug)]
pub struct BuildTable {
    /// Shard `p` owns the keys with `hash % parts == p`.
    parts: Vec<Shard>,
    /// Governor working-memory tally: charged once per build from the
    /// shards' index entries and row arrays, credited when the table
    /// drops.
    _charge: maybms_gov::MemCharge,
}

impl BuildTable {
    /// Build over rows `0..len`, hashing row `i` with `hash_of(i)`
    /// (`None` = NULL key, never inserted). Shards are filled
    /// deterministically as described in the module docs; a one-thread
    /// pool degenerates to a single sequential scan.
    pub fn build<F>(len: usize, hash_of: F, pool: &ThreadPool, min_chunk: usize) -> BuildTable
    where
        F: Fn(usize) -> Option<u64> + Sync,
    {
        let nparts = if pool.threads() > 1 && len >= min_chunk {
            pool.threads()
        } else {
            1
        };
        let chunk = maybms_par::auto_chunk(len, pool.threads(), min_chunk);
        // Morsel-local pass: each morsel emits its `(hash, row)` pairs into
        // one list per target shard, in row order.
        let locals: Vec<Vec<Vec<(u64, u32)>>> = pool.par_map_chunks(len, chunk, |range| {
            let mut pairs: Vec<Vec<(u64, u32)>> = (0..nparts)
                .map(|_| Vec::with_capacity(range.len() / nparts + 1))
                .collect();
            for i in range {
                if let Some(h) = hash_of(i) {
                    pairs[(h as usize) % nparts].push((h, i as u32));
                }
            }
            pairs
        });
        // One shard per task: count per hash, lay the slices out, then
        // place every row at its hash's cursor — all in morsel order, so
        // each slice is ascending.
        let parts: Vec<Shard> = pool.par_map((0..nparts).collect::<Vec<_>>(), |p| {
            let pairs = || locals.iter().flat_map(|morsel| &morsel[p]);
            let total: usize = locals.iter().map(|morsel| morsel[p].len()).sum();
            let mut index: FastMap<u64, (u32, u32)> =
                FastMap::with_capacity_and_hasher(total, Default::default());
            for &(h, _) in pairs() {
                index.entry(h).or_default().1 += 1;
            }
            // Each slot becomes `(start, 0)`; its length counts back up as
            // the rows land.
            let mut next = 0u32;
            for slot in index.values_mut() {
                let count = slot.1;
                *slot = (next, 0);
                next += count;
            }
            let mut rows = vec![0u32; total];
            for &(h, r) in pairs() {
                let slot = index.get_mut(&h).expect("every hash was counted");
                rows[(slot.0 + slot.1) as usize] = r;
                slot.1 += 1;
            }
            Shard { index, rows }
        });
        let mut charge = maybms_gov::MemCharge::new();
        for part in &parts {
            let entry = std::mem::size_of::<(u64, (u32, u32))>();
            charge.add(part.index.len() * entry + part.rows.len() * std::mem::size_of::<u32>());
        }
        BuildTable {
            parts,
            _charge: charge,
        }
    }

    /// The build rows whose key hashes to `h`, in ascending row order
    /// (empty when the hash is absent). Hash matches still need key
    /// verification by the caller.
    #[inline]
    pub fn candidates(&self, h: u64) -> &[u32] {
        let shard = &self.parts[(h as usize) % self.parts.len()];
        match shard.index.get(&h) {
            Some(&(start, len)) => &shard.rows[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merged candidate lists must equal a sequential build at any
    /// thread count and morsel size.
    #[test]
    fn morsel_local_build_matches_sequential() {
        let hashes: Vec<Option<u64>> = (0..257u64)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 13) })
            .collect();
        let seq = {
            let pool = ThreadPool::new(1);
            BuildTable::build(hashes.len(), |i| hashes[i], &pool, usize::MAX)
        };
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            for min_chunk in [1, 3, 64] {
                let par = BuildTable::build(hashes.len(), |i| hashes[i], &pool, min_chunk);
                for h in 0..13u64 {
                    assert_eq!(
                        seq.candidates(h),
                        par.candidates(h),
                        "hash {h}, threads {threads}, min_chunk {min_chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn null_keys_never_inserted() {
        let pool = ThreadPool::new(2);
        let table = BuildTable::build(10, |_| None, &pool, 2);
        for h in 0..16u64 {
            assert!(table.candidates(h).is_empty());
        }
    }

    #[test]
    fn candidates_ascending_with_duplicates() {
        let pool = ThreadPool::new(4);
        let table = BuildTable::build(100, |_| Some(42), &pool, 4);
        let c = table.candidates(42);
        assert_eq!(c.len(), 100);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }
}
