//! Sharded exact-LRU block cache shared by all tables of an engine (HBase's
//! *block cache*; the paper warms it before read experiments, §8.1).
//!
//! Values are [`Block`]s: one shared byte buffer plus a cell-offset array,
//! so a cache hit hands back the block for zero-copy slicing rather than a
//! pre-materialized `Vec<Cell>`.

use crate::sstable::Block;
use crate::util::FxBuildHasher;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 16;

/// Cache key: (table id, block offset).
type BlockId = (u64, u64);

/// Slab index meaning "no node" in the LRU links.
const NIL: u32 = u32::MAX;

struct Node {
    id: BlockId,
    /// `None` while the slot sits on the free list, so an evicted block's
    /// memory is released at eviction, not when the slot is reused.
    block: Option<Arc<Block>>,
    size: usize,
    /// Neighbour towards the most-recently-used end.
    prev: u32,
    /// Neighbour towards the least-recently-used end.
    next: u32,
}

/// One shard: an exact LRU with O(1) hit, insert and eviction. Nodes live
/// in a slab `Vec` linked into a doubly-linked recency list by index; a hit
/// moves its node to the front and eviction pops the tail, so a miss never
/// scans the resident blocks while holding the shard lock. Freed slots are
/// reused before the slab grows.
struct Shard {
    /// Block id → slab index. Fx-hashed: a cache hit is on the warm read
    /// path, and SipHash-ing the 16-byte id costs more than the bucket
    /// probe it guards.
    map: HashMap<BlockId, u32, FxBuildHasher>,
    nodes: Vec<Node>,
    /// Slab indices of unused nodes.
    free: Vec<u32>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node: the next victim.
    tail: u32,
    bytes: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity,
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, id: BlockId) -> Option<Arc<Block>> {
        let i = *self.map.get(&id)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.nodes[i as usize].block.clone()
    }

    /// Insert and hand back the resident blocks evicted to make room, for
    /// the caller to free after releasing the shard lock.
    fn insert(&mut self, id: BlockId, block: Arc<Block>) -> Vec<Arc<Block>> {
        let mut evicted = Vec::new();
        let size = block.size_bytes();
        if size > self.capacity {
            return evicted; // Oversized block: never cache.
        }
        let i = match self.map.get(&id).copied() {
            Some(i) => {
                let node = &mut self.nodes[i as usize];
                self.bytes = self.bytes - node.size + size;
                node.block = Some(block);
                node.size = size;
                self.unlink(i);
                i
            }
            None => {
                let node = Node { id, block: Some(block), size, prev: NIL, next: NIL };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        self.nodes.push(node);
                        u32::try_from(self.nodes.len() - 1).expect("shard holds < 2^32 blocks")
                    }
                };
                self.map.insert(id, i);
                self.bytes += size;
                i
            }
        };
        self.push_front(i);
        // The new block is at the front and fits on its own, so the tail is
        // never it while the budget is exceeded.
        while self.bytes > self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = &mut self.nodes[victim as usize];
            evicted.extend(node.block.take());
            self.bytes -= node.size;
            self.map.remove(&node.id);
            self.free.push(victim);
        }
        evicted
    }
}

/// Thread-safe sharded LRU cache of decoded data blocks. Hit, miss and
/// eviction counts are kept per table in [`crate::Metrics`], not here, so a
/// `get` touches no state shared by every thread beyond its shard lock.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache").field("resident_bytes", &self.resident_bytes()).finish()
    }
}

impl BlockCache {
    /// Cache with a total byte budget split evenly across shards.
    pub fn new(capacity_bytes: usize) -> Self {
        let per_shard = (capacity_bytes / SHARDS).max(1024);
        Self { shards: (0..SHARDS).map(|_| Mutex::new(Shard::new(per_shard))).collect() }
    }

    fn shard(&self, id: BlockId) -> &Mutex<Shard> {
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(id.1);
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Fetch a block if cached, marking it most recently used.
    pub fn get(&self, table_id: u64, offset: u64) -> Option<Arc<Block>> {
        self.shard((table_id, offset)).lock().touch((table_id, offset))
    }

    /// Insert a freshly decoded block. Returns the number of blocks evicted
    /// to stay within the byte budget, so callers can surface eviction
    /// pressure in their own metrics. Evicted blocks are freed after the
    /// shard lock is released, so other threads never wait on the frees.
    pub fn insert(&self, table_id: u64, offset: u64, block: Arc<Block>) -> u64 {
        let evicted = self.shard((table_id, offset)).lock().insert((table_id, offset), block);
        evicted.len() as u64
    }

    /// Total resident bytes across shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cell;

    fn block(n: usize) -> Arc<Block> {
        let cells: Vec<Cell> =
            (0..n).map(|i| Cell::put(format!("k{i:04}"), 1, vec![0u8; 50])).collect();
        Arc::new(Block::from_cells(&cells))
    }

    #[test]
    fn get_after_insert_hits() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(1, 0).is_none(), "first get misses");
        let b = block(4);
        c.insert(1, 0, Arc::clone(&b));
        let hit = c.get(1, 0).expect("second get hits");
        assert!(Arc::ptr_eq(&hit, &b), "hit returns the inserted block");
    }

    #[test]
    fn distinct_tables_do_not_collide() {
        let c = BlockCache::new(1 << 20);
        c.insert(1, 0, block(1));
        assert!(c.get(2, 0).is_none());
        assert!(c.get(1, 4096).is_none());
    }

    #[test]
    fn eviction_respects_capacity_and_counts() {
        let c = BlockCache::new(16 * 1024);
        let evicted: u64 = (0..200).map(|i| c.insert(i, 0, block(8))).sum();
        assert!(c.resident_bytes() <= 16 * 1024 + 4096, "resident {} too big", c.resident_bytes());
        assert!(evicted > 0, "filling 200 blocks into 16KB must evict");
    }

    #[test]
    fn lru_keeps_recently_touched() {
        let c = BlockCache::new(SHARDS * 2048);
        // All to one table so hashing spreads across shards; then hammer one id.
        c.insert(9, 42, block(2));
        for i in 0..500 {
            c.insert(9, 1000 + i, block(2));
            c.get(9, 42); // keep hot
        }
        assert!(c.get(9, 42).is_some(), "hot block should survive eviction");
    }

    #[test]
    fn oversized_block_is_not_cached() {
        let c = BlockCache::new(SHARDS * 1024);
        let evicted = c.insert(1, 0, block(1000)); // ~60KB > 1KB shard capacity
        assert!(c.get(1, 0).is_none());
        assert_eq!(evicted, 0);
    }

    #[test]
    fn reinsert_replaces_and_keeps_accounting_sane() {
        let c = BlockCache::new(1 << 20);
        c.insert(1, 0, block(4));
        let b1 = c.resident_bytes();
        c.insert(1, 0, block(4));
        assert_eq!(c.resident_bytes(), b1);
    }

    /// Walk the recency list and check it against the map, the slab and the
    /// byte count; returns resident ids from most to least recently used.
    fn check(shard: &Shard) -> Vec<BlockId> {
        let mut order = Vec::new();
        let (mut prev, mut i, mut bytes) = (NIL, shard.head, 0);
        while i != NIL {
            let node = &shard.nodes[i as usize];
            assert_eq!(node.prev, prev, "back link of slot {i}");
            assert_eq!(shard.map[&node.id], i);
            assert_eq!(node.size, node.block.as_ref().expect("resident").size_bytes());
            bytes += node.size;
            order.push(node.id);
            (prev, i) = (i, node.next);
        }
        assert_eq!(shard.tail, prev);
        assert_eq!(order.len(), shard.map.len());
        assert_eq!(order.len() + shard.free.len(), shard.nodes.len());
        assert_eq!(shard.bytes, bytes, "bytes equals the sum of resident sizes");
        order
    }

    #[test]
    fn shard_evicts_least_recently_used_first() {
        let size = block(2).size_bytes();
        let mut s = Shard::new(3 * size);
        let (a, b, c, d, e) = ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0));
        for id in [a, b, c] {
            assert!(s.insert(id, block(2)).is_empty(), "fits within capacity");
        }
        assert!(s.touch(a).is_some());
        assert_eq!(s.insert(d, block(2)).len(), 1);
        assert_eq!(check(&s), [d, a, c], "B was least recently used");
        assert_eq!(s.insert(e, block(2)).len(), 1);
        assert_eq!(check(&s), [e, d, a], "then C");
    }

    #[test]
    fn shard_reinsert_moves_to_front_and_keeps_bytes_exact() {
        let size = block(2).size_bytes();
        let mut s = Shard::new(3 * size);
        let (a, b, c, d) = ((1, 0), (2, 0), (3, 0), (4, 0));
        for id in [a, b, c] {
            s.insert(id, block(2));
        }
        let smaller = block(1);
        assert!(s.insert(a, Arc::clone(&smaller)).is_empty());
        assert_eq!(check(&s), [a, c, b]);
        assert_eq!(s.bytes, 2 * size + smaller.size_bytes());
        assert!(Arc::ptr_eq(&s.touch(a).unwrap(), &smaller), "re-insert replaces the block");
        assert_eq!(s.insert(d, block(2)).len(), 1);
        assert_eq!(check(&s), [d, a, c], "B, not the re-inserted A, is evicted");
    }

    #[test]
    fn shard_slab_reuses_freed_slots() {
        let blocks: Vec<Arc<Block>> = (1..=7).map(block).collect();
        let mut s = Shard::new(16 * 1024);
        let mut peak = 0;
        let mut evicted = 0;
        for i in 0..100_000u64 {
            evicted +=
                s.insert((i, i * 4096), Arc::clone(&blocks[i as usize % blocks.len()])).len();
            peak = peak.max(s.map.len());
            assert!(s.bytes <= s.capacity);
        }
        assert_eq!(evicted, 100_000 - s.map.len(), "every eviction is counted");
        assert!(s.nodes.len() <= peak + 1, "slab {} vs peak resident {peak}", s.nodes.len());
        check(&s);
    }
}
