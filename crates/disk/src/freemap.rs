//! Sector-granularity free-space tracking.

use crate::geometry::{Extent, Lba};

/// A free-space bitmap over a disk's sectors with extent-oriented search.
///
/// All allocation policies sit on top of this map. It is deliberately a
/// plain bitmap (one bit per sector) rather than an extent tree: media
/// blocks are large and allocation happens at recording rate, not at
/// random-write rate, so the simple structure is never the bottleneck and
/// its invariants are trivially checkable.
#[derive(Clone, Debug)]
pub struct FreeMap {
    bits: Vec<u64>,
    total: u64,
    free: u64,
}

const WORD: u64 = 64;

impl FreeMap {
    /// A map of `total` sectors, all free.
    pub fn new(total: u64) -> Self {
        let words = total.div_ceil(WORD) as usize;
        FreeMap {
            bits: vec![0; words],
            total,
            free: total,
        }
    }

    /// Total sectors tracked.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sectors currently free.
    #[inline]
    pub fn free(&self) -> u64 {
        self.free
    }

    /// Sectors currently allocated.
    #[inline]
    pub fn used(&self) -> u64 {
        self.total - self.free
    }

    /// Fraction of the disk allocated, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.used() as f64 / self.total as f64
        }
    }

    #[inline]
    fn is_set(&self, lba: Lba) -> bool {
        (self.bits[(lba / WORD) as usize] >> (lba % WORD)) & 1 == 1
    }

    /// True if every sector of `e` is free.
    pub fn extent_free(&self, e: Extent) -> bool {
        if e.end() > self.total {
            return false;
        }
        (e.start..e.end()).all(|s| !self.is_set(s))
    }

    /// True if every sector of `e` is allocated.
    pub fn extent_used(&self, e: Extent) -> bool {
        if e.end() > self.total {
            return false;
        }
        (e.start..e.end()).all(|s| self.is_set(s))
    }

    /// Mark `e` allocated. Panics if any sector is already allocated or
    /// off-map — double allocation is a file-system bug.
    pub fn allocate(&mut self, e: Extent) {
        assert!(e.end() <= self.total, "allocate beyond map: {e:?}");
        for s in e.start..e.end() {
            assert!(!self.is_set(s), "double allocation at sector {s}");
            self.bits[(s / WORD) as usize] |= 1 << (s % WORD);
        }
        self.free -= e.sectors;
    }

    /// Mark `e` free. Panics if any sector is already free or off-map.
    pub fn release(&mut self, e: Extent) {
        assert!(e.end() <= self.total, "release beyond map: {e:?}");
        for s in e.start..e.end() {
            assert!(self.is_set(s), "double free at sector {s}");
            self.bits[(s / WORD) as usize] &= !(1 << (s % WORD));
        }
        self.free += e.sectors;
    }

    /// Mark every allocated sector of `e` free, a word at a time; its
    /// free sectors, and any part past the map, stay as they are.
    pub fn clear(&mut self, e: Extent) {
        let (mut s, end) = (e.start.min(self.total), e.end().min(self.total));
        while s < end {
            let (w, bit) = ((s / WORD) as usize, s % WORD);
            let n = (WORD - bit).min(end - s);
            let mask = (u64::MAX >> (WORD - n)) << bit;
            self.free += u64::from((self.bits[w] & mask).count_ones());
            self.bits[w] &= !mask;
            s += n;
        }
    }

    /// Find the first free run of `len` sectors whose start lies in
    /// `[from, to)` (the run itself may extend past `to` but not past the
    /// map). Returns its start.
    pub fn find_free_run(&self, from: Lba, to: Lba, len: u64) -> Option<Lba> {
        if len == 0 {
            return None;
        }
        let to = to.min(self.total);
        let mut start = from;
        while start < to && start + len <= self.total {
            // Extend the current candidate run.
            match (start..start + len).find(|&s| self.is_set(s)) {
                None => return Some(start),
                // Skip past the blocking allocated sector.
                Some(blocked) => start = blocked + 1,
            }
        }
        None
    }

    /// Iterate over all maximal free extents, in address order.
    pub fn free_extents(&self) -> Vec<Extent> {
        let mut out = Vec::new();
        let mut run_start: Option<Lba> = None;
        let mut s = 0;
        while s < self.total {
            match (self.is_set(s), run_start) {
                (false, None) => run_start = Some(s),
                (true, Some(st)) => {
                    out.push(Extent::new(st, s - st));
                    run_start = None;
                }
                _ => {}
            }
            // Past its first sector, an all-free or all-used word
            // neither starts nor ends a run.
            let word = self.bits[(s / WORD) as usize];
            let uniform = s % WORD == 0 && (word == 0 || word == u64::MAX);
            s += if uniform { WORD } else { 1 };
        }
        if let Some(st) = run_start {
            out.push(Extent::new(st, self.total - st));
        }
        out
    }

    /// The largest free extent, if any sector is free.
    pub fn largest_free_extent(&self) -> Option<Extent> {
        self.free_extents().into_iter().max_by_key(|e| e.sectors)
    }

    /// External fragmentation: `1 - largest_free / total_free`, 0 when
    /// empty or when the free space is one run.
    pub fn fragmentation(&self) -> f64 {
        if self.free == 0 {
            return 0.0;
        }
        let largest = self.largest_free_extent().map(|e| e.sectors).unwrap_or(0);
        1.0 - largest as f64 / self.free as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_all_free() {
        let m = FreeMap::new(100);
        assert_eq!(m.free(), 100);
        assert_eq!(m.used(), 0);
        assert_eq!(m.utilization(), 0.0);
        assert!(m.extent_free(Extent::new(0, 100)));
    }

    #[test]
    fn allocate_release_round_trip() {
        let mut m = FreeMap::new(100);
        let e = Extent::new(10, 20);
        m.allocate(e);
        assert_eq!(m.used(), 20);
        assert!(m.extent_used(e));
        assert!(!m.extent_free(Extent::new(9, 2)));
        assert!(m.extent_free(Extent::new(0, 10)));
        m.release(e);
        assert_eq!(m.used(), 0);
        assert!(m.extent_free(e));
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_allocation_panics() {
        let mut m = FreeMap::new(100);
        m.allocate(Extent::new(0, 10));
        m.allocate(Extent::new(5, 10));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = FreeMap::new(100);
        m.release(Extent::new(0, 1));
    }

    #[test]
    fn find_free_run_skips_allocated() {
        let mut m = FreeMap::new(64);
        m.allocate(Extent::new(4, 4));
        assert_eq!(m.find_free_run(0, 64, 4), Some(0));
        assert_eq!(m.find_free_run(2, 64, 4), Some(8));
        assert_eq!(m.find_free_run(0, 64, 5), Some(8));
        // Window that excludes all valid starts.
        assert_eq!(m.find_free_run(4, 8, 1), None);
        // Too long for the remaining space.
        assert_eq!(m.find_free_run(0, 64, 61), None);
        assert_eq!(m.find_free_run(0, 64, 0), None);
    }

    #[test]
    fn find_free_run_respects_map_end() {
        let m = FreeMap::new(10);
        assert_eq!(m.find_free_run(8, 10, 3), None);
        assert_eq!(m.find_free_run(8, 10, 2), Some(8));
    }

    #[test]
    fn free_extents_enumeration() {
        let mut m = FreeMap::new(32);
        m.allocate(Extent::new(0, 4));
        m.allocate(Extent::new(10, 6));
        m.allocate(Extent::new(30, 2));
        assert_eq!(
            m.free_extents(),
            vec![Extent::new(4, 6), Extent::new(16, 14)]
        );
        assert_eq!(m.largest_free_extent(), Some(Extent::new(16, 14)));
    }

    #[test]
    fn fragmentation_metric() {
        let mut m = FreeMap::new(100);
        assert_eq!(m.fragmentation(), 0.0);
        // Checkerboard the first 20 sectors.
        for i in 0..10 {
            m.allocate(Extent::new(i * 2, 1));
        }
        let frag = m.fragmentation();
        assert!(frag > 0.0 && frag < 1.0);
        // Fully allocated -> defined as 0.
        let mut full = FreeMap::new(4);
        full.allocate(Extent::new(0, 4));
        assert_eq!(full.fragmentation(), 0.0);
    }

    /// Whole free and used words, runs ending on and across word
    /// boundaries, a partial last word: the word-stepping `free_extents`
    /// and `clear` agree with a sector-by-sector walk.
    #[test]
    fn clear_and_free_extents_agree_with_a_sector_walk() {
        let naive = |m: &FreeMap| {
            let mut runs: Vec<Extent> = Vec::new();
            for s in (0..m.total()).filter(|&s| !m.is_set(s)) {
                match runs.last_mut() {
                    Some(r) if r.end() == s => r.sectors += 1,
                    _ => runs.push(Extent::new(s, 1)),
                }
            }
            runs
        };
        let mut m = FreeMap::new(700);
        for e in [(0, 64), (64, 1), (127, 130), (320, 64), (400, 3), (640, 60)] {
            m.allocate(Extent::new(e.0, e.1));
        }
        assert_eq!(m.free_extents(), naive(&m));
        let mut cleared = m.clone();
        for e in [(60, 10), (200, 150), (650, 100), (900, 5)] {
            cleared.clear(Extent::new(e.0, e.1));
            for s in e.0..(e.0 + e.1).min(700) {
                if m.is_set(s) {
                    m.release(Extent::new(s, 1));
                }
            }
        }
        assert_eq!(
            (cleared.bits.clone(), cleared.free()),
            (m.bits.clone(), m.free())
        );
        assert_eq!(cleared.free_extents(), naive(&cleared));
    }

    #[test]
    fn word_boundary_handling() {
        let mut m = FreeMap::new(130);
        m.allocate(Extent::new(62, 5)); // spans the word-0/word-1 boundary
        assert!(m.extent_used(Extent::new(62, 5)));
        assert!(m.extent_free(Extent::new(0, 62)));
        assert!(m.extent_free(Extent::new(67, 63)));
        m.release(Extent::new(62, 5));
        assert_eq!(m.free(), 130);
    }
}
