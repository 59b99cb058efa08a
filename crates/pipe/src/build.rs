//! Morsel-local parallel hash-table build with a deterministic merge.
//!
//! The materialising joins build their hash table in one sequential scan
//! (or, in the `*_with` parallel paths, via a bucketed pre-pass). A
//! morsel-driven executor wants the build itself to be morsel-granular:
//! each morsel of build rows constructs a **private** table mapping key
//! hash → ascending row indices, and the private tables are merged into
//! hash-partitioned shards by concatenating every key's candidate lists
//! **in morsel order**. Because morsels cover ascending row ranges and
//! rows within a morsel are visited in order, the merged candidate list
//! of every key is the ascending row order a sequential build would have
//! produced — regardless of thread count, scheduling, or the iteration
//! order of the intermediate maps (per-key lists are keyed merges, never
//! order-of-iteration merges).

use maybms_engine::hash::FastMap;
use maybms_par::ThreadPool;

/// A hash-partitioned join build table: key hash → build-row indices in
/// ascending (sequential insertion) order.
#[derive(Debug)]
pub struct BuildTable {
    /// Shard `p` owns the keys with `hash % parts == p`.
    parts: Vec<FastMap<u64, Vec<u32>>>,
    /// Governor working-memory tally: charged once per build from the
    /// merged shard sizes, credited when the table drops.
    _charge: maybms_gov::MemCharge,
}

impl BuildTable {
    /// Build over rows `0..len`, hashing row `i` with `hash_of(i)`
    /// (`None` = NULL key, never inserted). Morsel-local tables are
    /// merged deterministically as described in the module docs; a
    /// one-thread pool degenerates to a single sequential scan.
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
        // Morsel-local build: each morsel owns `nparts` private maps (one
        // per target shard) so the merge below touches only its own
        // shard's entries — total work stays O(rows + distinct keys).
        let locals: Vec<Vec<FastMap<u64, Vec<u32>>>> = pool.par_map_chunks(len, chunk, |range| {
            let mut maps: Vec<FastMap<u64, Vec<u32>>> =
                (0..nparts).map(|_| FastMap::default()).collect();
            for i in range {
                if let Some(h) = hash_of(i) {
                    maps[(h as usize) % nparts]
                        .entry(h)
                        .or_default()
                        .push(i as u32);
                }
            }
            maps
        });
        // Chunk-ordered merge, one shard per task: every key's candidate
        // list is the concatenation of its morsel-local lists in morsel
        // order — the sequential ascending row order.
        let parts: Vec<FastMap<u64, Vec<u32>>> =
            pool.par_map((0..nparts).collect::<Vec<_>>(), |p| {
                let mut table: FastMap<u64, Vec<u32>> =
                    FastMap::with_capacity_and_hasher(len / nparts + 1, Default::default());
                for morsel in &locals {
                    for (h, rows) in &morsel[p] {
                        table.entry(*h).or_default().extend_from_slice(rows);
                    }
                }
                table
            });
        let mut charge = maybms_gov::MemCharge::new();
        for part in &parts {
            // Entry overhead plus each key's candidate list.
            let entry = std::mem::size_of::<(u64, Vec<u32>)>();
            let rows: usize = part.values().map(Vec::len).sum();
            charge.add(part.len() * entry + rows * std::mem::size_of::<u32>());
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
        self.parts[(h as usize) % self.parts.len()]
            .get(&h)
            .map(Vec::as_slice)
            .unwrap_or(&[])
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
