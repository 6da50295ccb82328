//! The exact least-recently-used cache behind both of the store's page
//! caches: the shared record/label/point cache and the membership
//! mask's write-back cache.
//!
//! Page ids are dense and known when the pool opens, so a
//! direct-indexed **directory** maps an id to its arena slot with no
//! hashing. The resident pages form an **intrusive doubly linked
//! list** through the arena, most recently used at the head, so a hit
//! moves its page to the front in O(1) and eviction takes the tail.
//! Removal swaps the last arena slot into the hole, so the arena holds
//! exactly the resident pages; the directory is O(pages), never
//! O(rows), and never grows after construction.

/// Slot index meaning "no page" in the directory and the links.
const NIL: u32 = u32::MAX;

struct Node<V> {
    id: usize,
    /// Next more recently used page.
    prev: u32,
    /// Next less recently used page.
    next: u32,
    cost: usize,
    value: V,
}

/// An exact LRU over page ids `0..ids` with a budget on the summed
/// cost of the resident pages. The page being inserted is never
/// evicted, so a budget below one page degrades to cache-nothing: the
/// new page stays until the next insert evicts it.
pub(crate) struct Lru<V> {
    dir: Vec<u32>,
    nodes: Vec<Node<V>>,
    head: u32,
    tail: u32,
    budget: usize,
    used: usize,
}

impl<V> Lru<V> {
    pub(crate) fn new(ids: usize, budget: usize) -> Self {
        Self {
            dir: vec![NIL; ids],
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            budget,
            used: 0,
        }
    }

    /// Summed cost of the resident pages.
    #[cfg(test)]
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// Looks a page up, making it the most recently used.
    pub(crate) fn get(&mut self, id: usize) -> Option<&mut V> {
        let slot = self.dir[id];
        if slot == NIL {
            return None;
        }
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&mut self.nodes[slot as usize].value)
    }

    /// Inserts a page that is not resident, first handing least
    /// recently used pages to `evicted` until it fits the budget.
    pub(crate) fn insert(
        &mut self,
        id: usize,
        value: V,
        cost: usize,
        mut evicted: impl FnMut(usize, V),
    ) -> &mut V {
        debug_assert_eq!(self.dir[id], NIL, "page {id} is already resident");
        while self.used + cost > self.budget && self.tail != NIL {
            let node = self.remove(self.tail);
            evicted(node.id, node.value);
        }
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("fewer than 2³² - 1 resident pages");
        self.nodes.push(Node {
            id,
            prev: NIL,
            next: NIL,
            cost,
            value,
        });
        self.push_front(slot);
        self.dir[id] = slot;
        self.used += cost;
        &mut self.nodes[slot as usize].value
    }

    /// Every resident page, in no particular order.
    #[cfg(test)]
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut V)> {
        self.nodes.iter_mut().map(|n| (n.id, &mut n.value))
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = (
            self.nodes[slot as usize].prev,
            self.nodes[slot as usize].next,
        );
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Unlinks and removes `slot`, moving the last arena node into it.
    fn remove(&mut self, slot: u32) -> Node<V> {
        self.unlink(slot);
        let node = self.nodes.swap_remove(slot as usize);
        self.dir[node.id] = NIL;
        self.used -= node.cost;
        if let Some(moved) = self.nodes.get(slot as usize) {
            let (id, prev, next) = (moved.id, moved.prev, moved.next);
            self.dir[id] = slot;
            match prev {
                NIL => self.head = slot,
                p => self.nodes[p as usize].next = slot,
            }
            match next {
                NIL => self.tail = slot,
                n => self.nodes[n as usize].prev = slot,
            }
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The obvious LRU: keys most recently used first, linear search.
    struct NaiveLru {
        pages: Vec<(usize, usize)>,
        budget: usize,
    }

    impl NaiveLru {
        fn used(&self) -> usize {
            self.pages.iter().map(|&(_, cost)| cost).sum()
        }

        fn get(&mut self, id: usize) -> bool {
            let Some(at) = self.pages.iter().position(|&(k, _)| k == id) else {
                return false;
            };
            let page = self.pages.remove(at);
            self.pages.insert(0, page);
            true
        }

        fn insert(&mut self, id: usize, cost: usize, evicted: &mut Vec<usize>) {
            while self.used() + cost > self.budget && !self.pages.is_empty() {
                evicted.push(self.pages.pop().expect("non-empty").0);
            }
            self.pages.insert(0, (id, cost));
        }
    }

    #[test]
    fn memory_stays_bounded_when_nothing_evicts() {
        // A working set that fits never evicts; 100k touches must
        // still not grow any structure past the live pages plus the
        // directory's fixed size.
        let (ids, live) = (64usize, 8usize);
        let mut lru = Lru::new(ids, 1 << 20);
        for id in 0..live {
            lru.insert(id, id, 16, |_, _| panic!("nothing should evict"));
        }
        for i in 0..100_000usize {
            assert_eq!(lru.get(i % live).copied(), Some(i % live));
        }
        assert_eq!(lru.nodes.len(), live);
        assert!(
            lru.nodes.capacity() + lru.dir.capacity() <= live + ids,
            "{} arena slots and {} directory entries for {live} live pages",
            lru.nodes.capacity(),
            lru.dir.capacity()
        );
    }

    proptest! {
        /// The linked-arena LRU and the naive one agree on every hit,
        /// every eviction victim and its order, and the retained cost,
        /// for arbitrary costs and budgets from zero through below one
        /// page to larger than everything.
        #[test]
        fn matches_a_naive_lru(
            ids in 1usize..24,
            budget in prop_oneof![Just(0usize), 1usize..8, 8usize..300, Just(1usize << 40)],
            ops in prop::collection::vec((0usize..24, 0usize..64, prop::bool::ANY), 1..400),
        ) {
            let mut fast = Lru::new(ids, budget);
            let mut naive = NaiveLru { pages: Vec::new(), budget };
            for &(raw, cost, insert_on_miss) in &ops {
                let id = raw % ids;
                let hit = fast.get(id).is_some();
                prop_assert_eq!(hit, naive.get(id));
                if !hit && insert_on_miss {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let value = fast.insert(id, id, cost, |victim, value| {
                        assert_eq!(victim, value, "victim handed with its own value");
                        got.push(victim);
                    });
                    prop_assert_eq!(*value, id);
                    naive.insert(id, cost, &mut want);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(fast.used(), naive.used());
                prop_assert_eq!(fast.nodes.len(), naive.pages.len());
            }
            // Same residents in the same recency order, head to tail.
            let mut order = Vec::new();
            let mut slot = fast.head;
            while slot != NIL {
                order.push(fast.nodes[slot as usize].id);
                slot = fast.nodes[slot as usize].next;
            }
            let want: Vec<usize> = naive.pages.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(order, want);
        }
    }
}
