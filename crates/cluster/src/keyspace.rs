//! Key-space partitioning: regions and the partition map clients route with.
//!
//! A table's (encoded) key space is split into contiguous regions; each
//! region is served by one region server (Figure 3 of the paper). The client
//! library caches the partition map and routes each request to the right
//! server — there is no per-request master lookup.

use bytes::Bytes;

/// Identifier of a region within a table.
pub type RegionId = u32;

/// Identifier of a region server.
pub type ServerId = u32;

/// A contiguous slice of a table's key space: `[start, end)`, where an empty
/// `end` means "to infinity".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region id, unique within the table.
    pub id: RegionId,
    /// Inclusive start key (encoded); empty = from the beginning.
    pub start: Bytes,
    /// Exclusive end key (encoded); `None` = to the end.
    pub end: Option<Bytes>,
}

impl RegionSpec {
    /// True if `key` falls inside this region.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref()
            && match &self.end {
                Some(e) => key < e.as_ref(),
                None => true,
            }
    }
}

/// The partition map of one table: ordered regions plus their current
/// server assignment.
#[derive(Debug, Clone, Default)]
pub struct PartitionMap {
    /// Regions in key order. Invariant: `regions[0].start` is empty, each
    /// `end` equals the next region's `start`, and the last `end` is `None`.
    regions: Vec<RegionSpec>,
    /// `assignment[i]` = server currently hosting `regions[i]`.
    assignment: Vec<ServerId>,
    /// `epochs[i]` = fencing epoch of `regions[i]`'s current assignment.
    /// Starts at 1 and is bumped every time the region moves, so a write
    /// stamped with an older epoch provably predates the current assignment
    /// and must be rejected (split-brain guard, §5.3 + HBase's region-server
    /// fencing via ZooKeeper epochs).
    epochs: Vec<u64>,
}

impl PartitionMap {
    /// Build a map from explicit split points (encoded keys). `n` split
    /// points produce `n + 1` regions, assigned round-robin over `servers`.
    pub fn from_splits(splits: &[Bytes], servers: &[ServerId]) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        let mut sorted = splits.to_vec();
        sorted.sort();
        sorted.dedup();
        let mut regions = Vec::with_capacity(sorted.len() + 1);
        let mut start = Bytes::new();
        for (i, s) in sorted.iter().enumerate() {
            regions.push(RegionSpec { id: i as RegionId, start, end: Some(s.clone()) });
            start = s.clone();
        }
        regions.push(RegionSpec { id: sorted.len() as RegionId, start, end: None });
        let assignment: Vec<ServerId> =
            (0..regions.len()).map(|i| servers[i % servers.len()]).collect();
        let epochs = vec![1; regions.len()];
        Self { regions, assignment, epochs }
    }

    /// Evenly split the *byte* key space into `n` regions using single-byte
    /// prefixes. The split is even over first bytes, not over keys: every
    /// key with the same first byte lands in one region, and with `n = 4`
    /// every key that starts with an ASCII letter (`user<hash>`, `item…`,
    /// `title…`) lands in region 1. Keys spread only when their first bytes
    /// do, as raw hashes do.
    pub fn even(n: usize, servers: &[ServerId]) -> Self {
        assert!(n >= 1);
        let splits: Vec<Bytes> = (1..n)
            .map(|i| {
                let b = ((i * 256) / n) as u8;
                Bytes::copy_from_slice(&[b])
            })
            .collect();
        Self::from_splits(&splits, servers)
    }

    /// Region containing `key`.
    pub fn locate(&self, key: &[u8]) -> &RegionSpec {
        let idx = self.locate_idx(key);
        &self.regions[idx]
    }

    fn locate_idx(&self, key: &[u8]) -> usize {
        let pp = self.regions.partition_point(|r| r.start.as_ref() <= key);
        pp.saturating_sub(1)
    }

    /// Server hosting the region that contains `key`.
    pub fn server_for(&self, key: &[u8]) -> ServerId {
        self.assignment[self.locate_idx(key)]
    }

    /// Server hosting region `id`.
    pub fn server_of_region(&self, id: RegionId) -> Option<ServerId> {
        self.regions.iter().position(|r| r.id == id).map(|i| self.assignment[i])
    }

    /// Fencing epoch of the region that contains `key`.
    pub fn epoch_for(&self, key: &[u8]) -> u64 {
        self.epochs[self.locate_idx(key)]
    }

    /// Fencing epoch of region `id`.
    pub fn epoch_of_region(&self, id: RegionId) -> Option<u64> {
        self.regions.iter().position(|r| r.id == id).map(|i| self.epochs[i])
    }

    /// All regions (in key order) with their assignments.
    pub fn regions(&self) -> impl Iterator<Item = (&RegionSpec, ServerId)> {
        self.regions.iter().zip(self.assignment.iter().copied())
    }

    /// All regions (in key order) with assignment and fencing epoch — what
    /// the wire-level partition map carries.
    pub fn entries(&self) -> impl Iterator<Item = (&RegionSpec, ServerId, u64)> {
        self.regions
            .iter()
            .zip(self.assignment.iter().copied())
            .zip(self.epochs.iter().copied())
            .map(|((r, s), e)| (r, s, e))
    }

    /// Regions overlapping the key range `[start, end)`.
    pub fn regions_in_range<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a RegionSpec, ServerId)> + 'a {
        self.regions().filter(move |(r, _)| {
            let after_start = match &r.end {
                Some(e) => e.as_ref() > start,
                None => true,
            };
            let before_end = match end {
                Some(e) => r.start.as_ref() < e,
                None => true,
            };
            after_start && before_end
        })
    }

    /// Reassign every region on `from` to servers drawn round-robin from
    /// `to` (master failover, §5.3). Returns the region ids that moved.
    /// Every moved region's fencing epoch is bumped, so writes stamped under
    /// the previous assignment become rejectable.
    pub fn reassign(&mut self, from: ServerId, to: &[ServerId]) -> Vec<RegionId> {
        assert!(!to.is_empty(), "no surviving servers");
        let mut moved = Vec::new();
        let mut rr = 0usize;
        for (i, owner) in self.assignment.iter_mut().enumerate() {
            if *owner == from {
                *owner = to[rr % to.len()];
                rr += 1;
                self.epochs[i] += 1;
                moved.push(self.regions[i].id);
            }
        }
        moved
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Always false: a map has at least one region.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_splits_partitions_cover_space() {
        let m = PartitionMap::from_splits(
            &[Bytes::from_static(b"g"), Bytes::from_static(b"p")],
            &[0, 1, 2],
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m.locate(b"a").id, 0);
        assert_eq!(m.locate(b"g").id, 1, "split key belongs to the right region");
        assert_eq!(m.locate(b"k").id, 1);
        assert_eq!(m.locate(b"p").id, 2);
        assert_eq!(m.locate(b"zz").id, 2);
        assert_eq!(m.locate(b"").id, 0);
    }

    #[test]
    fn round_robin_assignment() {
        let m = PartitionMap::from_splits(
            &[Bytes::from_static(b"b"), Bytes::from_static(b"c"), Bytes::from_static(b"d")],
            &[10, 20],
        );
        let servers: Vec<ServerId> = m.regions().map(|(_, s)| s).collect();
        assert_eq!(servers, vec![10, 20, 10, 20]);
    }

    #[test]
    fn even_split_locates_bytes() {
        let m = PartitionMap::even(4, &[0, 1, 2, 3]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.locate(&[0x00]).id, 0);
        assert_eq!(m.locate(&[0x40]).id, 1);
        assert_eq!(m.locate(&[0x80]).id, 2);
        assert_eq!(m.locate(&[0xC0]).id, 3);
    }

    #[test]
    fn even_split_puts_ascii_letter_keys_in_one_region() {
        let m = PartitionMap::even(4, &[0, 1]);
        for key in [&b"item0001"[..], b"item9999", b"title-a", b"title~z", b"user42"] {
            assert_eq!(m.locate(key).id, 1, "{}", String::from_utf8_lossy(key));
        }
        assert_eq!(m.server_for(b"item0001"), 1);
    }

    #[test]
    fn even_split_single_region() {
        let m = PartitionMap::even(1, &[7]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.server_for(b"anything"), 7);
    }

    #[test]
    fn regions_in_range_selects_overlaps() {
        let m = PartitionMap::from_splits(
            &[Bytes::from_static(b"g"), Bytes::from_static(b"p")],
            &[0],
        );
        let ids: Vec<RegionId> =
            m.regions_in_range(b"h", Some(b"i")).map(|(r, _)| r.id).collect();
        assert_eq!(ids, vec![1]);
        let ids: Vec<RegionId> =
            m.regions_in_range(b"a", Some(b"z")).map(|(r, _)| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let ids: Vec<RegionId> = m.regions_in_range(b"p", None).map(|(r, _)| r.id).collect();
        assert_eq!(ids, vec![2]);
        // Range ending exactly at a region start excludes that region.
        let ids: Vec<RegionId> =
            m.regions_in_range(b"a", Some(b"g")).map(|(r, _)| r.id).collect();
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn reassign_moves_only_victims() {
        let mut m = PartitionMap::from_splits(
            &[Bytes::from_static(b"g"), Bytes::from_static(b"p")],
            &[1, 2, 1],
        );
        let moved = m.reassign(1, &[2, 3]);
        assert_eq!(moved, vec![0, 2]);
        let servers: Vec<ServerId> = m.regions().map(|(_, s)| s).collect();
        assert_eq!(servers, vec![2, 2, 3]);
    }

    #[test]
    fn epochs_start_at_one_and_bump_only_for_moved_regions() {
        let mut m = PartitionMap::from_splits(
            &[Bytes::from_static(b"g"), Bytes::from_static(b"p")],
            &[1, 2, 1],
        );
        assert!(m.entries().all(|(_, _, e)| e == 1));
        let moved = m.reassign(1, &[2, 3]);
        assert_eq!(moved, vec![0, 2]);
        assert_eq!(m.epoch_of_region(0), Some(2));
        assert_eq!(m.epoch_of_region(1), Some(1), "unmoved region keeps its epoch");
        assert_eq!(m.epoch_of_region(2), Some(2));
        // A second failover bumps again: epochs are monotonic per region.
        // Servers are now [2, 2, 3]; killing 2 moves regions 0 and 1.
        m.reassign(2, &[3]);
        assert_eq!(m.epoch_of_region(0), Some(3));
        assert_eq!(m.epoch_of_region(1), Some(2));
        assert_eq!(m.epoch_of_region(2), Some(2), "region on the survivor is untouched");
        assert_eq!(m.epoch_for(b"a"), 3);
        assert_eq!(m.epoch_for(b"h"), 2);
    }

    #[test]
    fn contains_matches_locate() {
        let m = PartitionMap::even(8, &[0]);
        for key in [&[0u8][..], &[0x33], &[0x7f], &[0xff, 0xff]] {
            let r = m.locate(key);
            assert!(r.contains(key));
        }
    }
}
