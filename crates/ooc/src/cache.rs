//! The shared LRU page cache with a hard byte budget.
//!
//! One cache serves three page kinds — decoded column records, label
//! blocks, point blocks — because a single budget is what the memory
//! gate reasons about. Pages are handed out as `Rc` slices, so a
//! caller can keep iterating a page it already fetched while the cache
//! evicts behind its back; at most O(1) pages per in-flight scan
//! outlive their cache slot.
//!
//! Recency and eviction are the exact LRU of [`crate::lru`]: a key maps
//! to the dense page id `page · (m + 2) + lane`, with lanes `0..m` for
//! the columns' records, `m` for labels and `m + 1` for points.

use std::rc::Rc;

use crate::lru::Lru;

/// One decoded column record: the value (already through
/// `ord_key_inverse`) and its row id. 16 bytes in cache for 12 on
/// disk — the budget counts the in-memory size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rec {
    pub value: f64,
    pub row: u32,
}

/// What a cache slot holds.
#[derive(Clone)]
pub(crate) enum Page {
    /// A page of one column's sorted records.
    Records(Rc<[Rec]>),
    /// A page of `f64`s (labels or packed points).
    Floats(Rc<[f64]>),
}

impl Page {
    fn bytes(&self) -> usize {
        match self {
            Page::Records(r) => r.len() * std::mem::size_of::<Rec>(),
            Page::Floats(f) => f.len() * std::mem::size_of::<f64>(),
        }
    }
}

/// Which of the store's backing arrays a page belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PageKind {
    /// `(key, row)` records of one column.
    Records,
    /// The label array.
    Labels,
    /// The row-major point array.
    Points,
}

/// Cache key: (kind, column, page number). Labels/points ignore the
/// column (stored as 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageKey {
    pub kind: PageKind,
    pub col: u32,
    pub page: u64,
}

/// LRU page cache with a hard byte budget. The budget bounds what the
/// cache *retains*; the page currently being inserted is always kept
/// (evicting everything else if need be), so a budget smaller than one
/// page degrades to cache-nothing rather than deadlock.
pub(crate) struct PageCache {
    lru: Lru<Page>,
    /// Lanes per page number: the `m` columns, labels, points.
    lanes: usize,
    /// Fetches served from cache.
    pub hits: u64,
    /// Fetches that had to load from disk.
    pub misses: u64,
}

impl PageCache {
    /// A cache for `n_pages` pages of each of an `m`-column pool's
    /// arrays.
    pub(crate) fn new(budget: usize, m: usize, n_pages: usize) -> Self {
        Self {
            lru: Lru::new(n_pages * (m + 2), budget),
            lanes: m + 2,
            hits: 0,
            misses: 0,
        }
    }

    /// Bytes currently retained.
    #[cfg(test)]
    pub(crate) fn used(&self) -> usize {
        self.lru.used()
    }

    fn id(&self, key: PageKey) -> usize {
        let lane = match key.kind {
            PageKind::Records => key.col as usize,
            PageKind::Labels => self.lanes - 2,
            PageKind::Points => self.lanes - 1,
        };
        key.page as usize * self.lanes + lane
    }

    /// Looks a page up, refreshing its recency.
    pub(crate) fn get(&mut self, key: PageKey) -> Option<Page> {
        let page = self.lru.get(self.id(key))?.clone();
        self.hits += 1;
        Some(page)
    }

    /// Inserts a freshly loaded page, evicting least-recently-used
    /// pages until the budget holds again.
    pub(crate) fn insert(&mut self, key: PageKey, page: Page) -> Page {
        self.misses += 1;
        let bytes = page.bytes();
        self.lru
            .insert(self.id(key), page, bytes, |_, _| {})
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floats(n: usize, fill: f64) -> Page {
        Page::Floats(vec![fill; n].into())
    }

    fn key(kind: PageKind, col: u32, page: u64) -> PageKey {
        PageKey { kind, col, page }
    }

    #[test]
    fn budget_is_a_hard_ceiling_on_retained_bytes() {
        let mut c = PageCache::new(64 * 8, 1, 32); // room for 64 f64s
        for p in 0..32 {
            c.insert(key(PageKind::Labels, 0, p), floats(16, p as f64));
            assert!(c.used() <= 64 * 8, "page {p}: used {} bytes", c.used());
        }
    }

    #[test]
    fn recently_used_pages_survive_eviction() {
        let mut c = PageCache::new(4 * 16 * 8, 1, 5);
        for p in 0..4 {
            c.insert(key(PageKind::Labels, 0, p), floats(16, p as f64));
        }
        // Touch page 0, then overflow: 0 must survive, 1 must go.
        assert!(c.get(key(PageKind::Labels, 0, 0)).is_some());
        c.insert(key(PageKind::Labels, 0, 4), floats(16, 4.0));
        assert!(
            c.get(key(PageKind::Labels, 0, 0)).is_some(),
            "refreshed page evicted"
        );
        assert!(
            c.get(key(PageKind::Labels, 0, 1)).is_none(),
            "LRU page retained"
        );
    }

    #[test]
    fn an_oversized_page_is_still_served() {
        let mut c = PageCache::new(8, 1, 2); // under one page
        let page = c.insert(key(PageKind::Labels, 0, 0), floats(16, 1.0));
        let Page::Floats(f) = page else { panic!() };
        assert_eq!(f.len(), 16);
        // The next insert replaces it.
        c.insert(key(PageKind::Labels, 0, 1), floats(16, 2.0));
        assert!(c.get(key(PageKind::Labels, 0, 0)).is_none());
    }

    #[test]
    fn kinds_and_columns_do_not_collide() {
        let mut c = PageCache::new(1 << 20, 4, 1);
        c.insert(key(PageKind::Labels, 0, 0), floats(4, 1.0));
        c.insert(key(PageKind::Points, 0, 0), floats(4, 2.0));
        c.insert(
            key(PageKind::Records, 3, 0),
            Page::Records(vec![Rec { value: 0.5, row: 7 }; 4].into()),
        );
        let Some(Page::Floats(l)) = c.get(key(PageKind::Labels, 0, 0)) else {
            panic!()
        };
        assert_eq!(l[0], 1.0);
        let Some(Page::Floats(p)) = c.get(key(PageKind::Points, 0, 0)) else {
            panic!()
        };
        assert_eq!(p[0], 2.0);
        assert!(c.get(key(PageKind::Records, 3, 0)).is_some());
        assert!(c.get(key(PageKind::Records, 2, 0)).is_none());
    }
}
