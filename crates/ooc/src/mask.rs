//! The paged, file-backed membership bitmask.
//!
//! The active-row mask of an `L = 10⁷` pool is only ~1.2 MB, but the
//! out-of-core contract is that **no** per-row state is resident: the
//! mask lives in a scratch file beside the artifact (one bit per row,
//! LSB-first within each byte, so ascending bit order is ascending row
//! order), and the store touches it through a small write-back page
//! cache — the exact LRU of [`crate::lru`], keyed by page number and
//! bounded by a page count. Deactivation marks pages dirty; eviction
//! and [`flush`] persist them with positioned writes.
//!
//! The scratch file is removed on drop — it is live search state, not
//! an artifact.
//!
//! [`flush`]: PagedMask::flush

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::lru::Lru;
use crate::OocError;

/// Bytes per mask page: 4 KiB = 32 768 rows.
pub(crate) const MASK_PAGE_BYTES: usize = 4096;

struct MaskPage {
    data: Vec<u8>,
    dirty: bool,
}

/// A file-backed bitmask over `n_rows` rows with a bounded write-back
/// page cache. Starts all-ones (every row active); bits only ever
/// clear (deactivation is monotone).
pub(crate) struct PagedMask {
    file: File,
    path: PathBuf,
    n_rows: usize,
    n_bytes: usize,
    pages: Lru<MaskPage>,
}

impl PagedMask {
    /// Creates the scratch file at `path`, initialized to all rows
    /// active, caching at most `max_pages` pages (≥ 1 enforced).
    pub(crate) fn create(path: &Path, n_rows: usize, max_pages: usize) -> Result<Self, OocError> {
        let n_bytes = n_rows.div_ceil(8);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // All-ones body, trailing bits beyond n_rows cleared.
        let chunk = [0xffu8; 64 * 1024];
        let mut remaining = n_bytes;
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            file.write_all(&chunk[..take])?;
            remaining -= take;
        }
        if !n_rows.is_multiple_of(8) && n_bytes > 0 {
            let last = 0xffu8 >> (8 - (n_rows % 8) as u32);
            file.write_at(&[last], (n_bytes - 1) as u64)?;
        }
        file.flush()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            n_rows,
            n_bytes,
            pages: Lru::new(n_bytes.div_ceil(MASK_PAGE_BYTES), max_pages.max(1)),
        })
    }

    /// Number of mask pages.
    pub(crate) fn n_pages(&self) -> u64 {
        self.n_bytes.div_ceil(MASK_PAGE_BYTES) as u64
    }

    fn page_len(&self, page: u64) -> usize {
        let start = page as usize * MASK_PAGE_BYTES;
        MASK_PAGE_BYTES.min(self.n_bytes - start)
    }

    fn write_back(file: &File, page: u64, data: &[u8]) -> Result<(), OocError> {
        file.write_all_at(data, page * MASK_PAGE_BYTES as u64)?;
        Ok(())
    }

    /// The cached page `page`, read from the scratch file on a miss.
    fn page(&mut self, page: u64) -> Result<&mut MaskPage, OocError> {
        let id = page as usize;
        if self.pages.get(id).is_none() {
            let mut data = vec![0u8; self.page_len(page)];
            self.file
                .read_exact_at(&mut data, page * MASK_PAGE_BYTES as u64)?;
            let mut failed = Ok(());
            let file = &self.file;
            let fresh = MaskPage { data, dirty: false };
            self.pages.insert(id, fresh, 1, |victim, evicted| {
                if evicted.dirty && failed.is_ok() {
                    failed = Self::write_back(file, victim as u64, &evicted.data);
                }
            });
            failed?;
        }
        Ok(self.pages.get(id).expect("just made resident"))
    }

    /// `true` when `row`'s bit is set.
    pub(crate) fn is_set(&mut self, row: u32) -> Result<bool, OocError> {
        debug_assert!((row as usize) < self.n_rows);
        let byte = row as usize / 8;
        let page = self.page((byte / MASK_PAGE_BYTES) as u64)?;
        Ok(page.data[byte % MASK_PAGE_BYTES] & (1 << (row % 8)) != 0)
    }

    /// Clears `row`'s bit; returns whether it was set.
    pub(crate) fn clear(&mut self, row: u32) -> Result<bool, OocError> {
        debug_assert!((row as usize) < self.n_rows);
        let byte = row as usize / 8;
        let page = self.page((byte / MASK_PAGE_BYTES) as u64)?;
        let bit = 1u8 << (row % 8);
        let was = page.data[byte % MASK_PAGE_BYTES] & bit != 0;
        if was {
            page.data[byte % MASK_PAGE_BYTES] &= !bit;
            page.dirty = true;
        }
        Ok(was)
    }

    /// A copy of one mask page's bytes (bit `b` of byte `i` is row
    /// `page·8·MASK_PAGE_BYTES + 8·i + b`). A copy, not a borrow, so
    /// the caller can interleave other store reads while walking it.
    pub(crate) fn page_bits(&mut self, page: u64) -> Result<Vec<u8>, OocError> {
        Ok(self.page(page)?.data.clone())
    }

    /// Writes every dirty cached page back to the scratch file. The
    /// store itself never needs this (the mask is scratch state,
    /// removed on drop); the persistence tests do.
    #[cfg(test)]
    pub(crate) fn flush(&mut self) -> Result<(), OocError> {
        for (page, cached) in self.pages.iter_mut() {
            if cached.dirty {
                Self::write_back(&self.file, page as u64, &cached.data)?;
                cached.dirty = false;
            }
        }
        Ok(())
    }
}

impl Drop for PagedMask {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reds-ooc-mask-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pool.mask")
    }

    #[test]
    fn starts_all_active_and_clears_monotonically() {
        let path = scratch("basic");
        let mut m = PagedMask::create(&path, 77, 2).unwrap();
        for row in 0..77 {
            assert!(m.is_set(row).unwrap(), "row {row} starts active");
        }
        assert!(m.clear(13).unwrap());
        assert!(!m.clear(13).unwrap(), "second clear reports already-clear");
        assert!(!m.is_set(13).unwrap());
        assert!(m.is_set(12).unwrap());
    }

    #[test]
    fn trailing_bits_beyond_n_rows_are_zero() {
        let path = scratch("trailing");
        let m = PagedMask::create(&path, 11, 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 2);
        assert_eq!(bytes[0], 0xff);
        assert_eq!(bytes[1], 0b0000_0111);
        drop(m);
        assert!(!path.exists(), "scratch mask not removed on drop");
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let path = scratch("writeback");
        // 3 pages of rows, cache of 1 page: every touch of another
        // page evicts (and persists) the previous one.
        let rows = MASK_PAGE_BYTES * 8 * 3;
        let mut m = PagedMask::create(&path, rows, 1).unwrap();
        let probes: Vec<u32> = vec![
            5,
            (MASK_PAGE_BYTES * 8 + 9) as u32,
            (2 * MASK_PAGE_BYTES * 8 + 13) as u32,
        ];
        for &row in &probes {
            assert!(m.clear(row).unwrap());
        }
        for &row in &probes {
            assert!(!m.is_set(row).unwrap(), "row {row} lost across eviction");
            assert!(m.is_set(row + 1).unwrap());
        }
        m.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for &row in &probes {
            assert_eq!(
                bytes[row as usize / 8] & (1 << (row % 8)),
                0,
                "row {row} not persisted"
            );
        }
    }

    proptest! {
        /// The paged, evicting, write-back mask agrees with a plain
        /// in-memory `Vec<bool>` across arbitrary clear/query
        /// sequences, row counts, and cache sizes (including a 1-page
        /// cache, which forces an eviction on every page switch).
        #[test]
        fn matches_in_memory_mask(
            n_rows in 1usize..200_000,
            max_pages in 1usize..4,
            ops in prop::collection::vec((0u32..u32::MAX, prop::bool::ANY), 1..300),
            case in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("reds-ooc-maskprop-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("m.mask");
            let mut paged = PagedMask::create(&path, n_rows, max_pages).unwrap();
            let mut reference = vec![true; n_rows];
            for &(raw, is_clear) in &ops {
                let row = raw % n_rows as u32;
                if is_clear {
                    let was = paged.clear(row).unwrap();
                    prop_assert_eq!(was, reference[row as usize]);
                    reference[row as usize] = false;
                } else {
                    prop_assert_eq!(paged.is_set(row).unwrap(), reference[row as usize]);
                }
            }
            // Full sweep: every row agrees at the end.
            for row in 0..n_rows as u32 {
                prop_assert_eq!(paged.is_set(row).unwrap(), reference[row as usize]);
            }
            // And the persisted file agrees bit for bit after a flush.
            paged.flush().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            for row in 0..n_rows {
                let bit = bytes[row / 8] & (1 << (row % 8)) != 0;
                prop_assert_eq!(bit, reference[row]);
            }
            drop(paged);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
