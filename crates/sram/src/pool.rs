//! A thread-safe recycling pool of [`ComputeArray`]s.
//!
//! The functional executor stands up one fresh 8KB array per
//! MAC/reduce/assemble/requantize run — millions of 256x256-bit allocations
//! over an Inception-class execution. In hardware the arrays are of course
//! the same physical SRAM on every pass; the pool mirrors that by handing
//! out *cleared* arrays and reclaiming them when the checkout handle drops,
//! so the hot path stops paying the allocator. It is `Sync`, so the worker
//! threads of a sharded execution engine can draw from one shared pool.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{ComputeArray, Result};

/// A monotonic snapshot of one [`ArrayPool`]'s checkout/recycle events.
///
/// The counters record the pool's whole lifetime, so a caller can diff two
/// snapshots around a region of interest. `acquires` and `releases` are
/// deterministic for a given workload (each shard job checks out a fixed
/// number of arrays and its handles drop when the job ends); the
/// fresh/recycled split and the high-water mark depend on thread timing
/// and are reported for observability only. The static shard-graph
/// verifier (`nc-verify`) reconciles its predicted checkout count against
/// `acquires` — a mismatch means the executor's real work decomposition
/// drifted from the verified plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total [`ArrayPool::acquire`] calls.
    pub acquires: u64,
    /// Total handle drops that returned an array to the pool's release
    /// path (whether retained or dropped over the idle cap).
    pub releases: u64,
    /// Acquires served by constructing a fresh array.
    pub fresh: u64,
    /// Acquires served by recycling an idle array.
    pub recycled: u64,
    /// Releases discarded because the pool was at its idle cap.
    pub dropped: u64,
    /// Maximum number of simultaneously checked-out arrays observed.
    pub high_water: u64,
}

impl PoolStats {
    /// Number of arrays currently checked out (live handles).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.acquires - self.releases
    }
}

/// Relaxed atomic event counters behind [`PoolStats`]. Relaxed ordering
/// suffices: the counters are monotone tallies read after the workers'
/// scoped join, which already synchronizes.
#[derive(Debug, Default)]
struct PoolCounters {
    acquires: AtomicU64,
    releases: AtomicU64,
    fresh: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    high_water: AtomicU64,
}

/// A recycling pool of [`ComputeArray`]s sharing one zero-row configuration.
///
/// # Examples
///
/// ```
/// use nc_sram::{ArrayPool, Operand};
///
/// let pool = ArrayPool::with_zero_row(255)?;
/// let op = Operand::new(0, 8)?;
/// {
///     let mut arr = pool.acquire();
///     arr.poke_lane(0, op, 42);
///     assert_eq!(arr.peek_lane(0, op), 42);
/// } // handle drops: the array is cleared and returned to the pool
/// let arr = pool.acquire(); // recycled, not reallocated
/// assert_eq!(arr.peek_lane(0, op), 0);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug)]
pub struct ArrayPool {
    zero_row: Option<usize>,
    free: Mutex<Vec<ComputeArray>>,
    max_idle: usize,
    counters: PoolCounters,
}

impl ArrayPool {
    /// Default cap on retained idle arrays ([`ArrayPool::max_idle`]).
    ///
    /// A bursty threaded run briefly checks out one array per in-flight
    /// shard job; without a cap every high-water-mark array would sit idle
    /// (8KB+ each) for the rest of the process. 64 comfortably covers the
    /// steady-state working set of the sharded executor (a few arrays per
    /// worker thread) while bounding retained memory to ~0.5 MB.
    pub const DEFAULT_MAX_IDLE: usize = 64;

    /// Creates an empty pool of arrays without a dedicated zero row.
    #[must_use]
    pub fn new() -> Self {
        ArrayPool {
            zero_row: None,
            free: Mutex::new(Vec::new()),
            max_idle: Self::DEFAULT_MAX_IDLE,
            counters: PoolCounters::default(),
        }
    }

    /// Creates a pool whose arrays all reserve `row` as the dedicated
    /// all-zero row (validated eagerly on a probe array).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SramError::RowOutOfRange`] if `row` is out of range.
    pub fn with_zero_row(row: usize) -> Result<Self> {
        let probe = ComputeArray::with_zero_row(row)?;
        Ok(ArrayPool {
            zero_row: Some(row),
            free: Mutex::new(vec![probe]),
            max_idle: Self::DEFAULT_MAX_IDLE,
            counters: PoolCounters::default(),
        })
    }

    /// Sets the maximum number of idle arrays the pool retains; arrays
    /// released beyond the cap are dropped instead of pooled. A cap of 0
    /// disables recycling entirely.
    #[must_use]
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle;
        self
    }

    /// The current idle-retention cap.
    #[must_use]
    pub fn max_idle(&self) -> usize {
        self.max_idle
    }

    /// Checks an array out of the pool, recycling a cleared one when
    /// available and constructing a fresh one otherwise. The returned
    /// handle dereferences to [`ComputeArray`] and returns the array to the
    /// pool when dropped.
    #[must_use]
    pub fn acquire(&self) -> PooledArray<'_> {
        let recycled = self.free.lock().expect("array pool poisoned").pop();
        let c = &self.counters;
        c.acquires.fetch_add(1, Ordering::Relaxed);
        if recycled.is_some() {
            c.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            c.fresh.fetch_add(1, Ordering::Relaxed);
        }
        // Best-effort high-water mark (the two loads are not atomic
        // together; under contention the mark may lag by a few handles,
        // which is fine for an observability counter).
        let outstanding = c
            .acquires
            .load(Ordering::Relaxed)
            .saturating_sub(c.releases.load(Ordering::Relaxed));
        c.high_water.fetch_max(outstanding, Ordering::Relaxed);
        let arr = recycled.unwrap_or_else(|| self.fresh());
        PooledArray {
            arr: Some(arr),
            pool: self,
        }
    }

    /// A snapshot of the pool's lifetime checkout/recycle event counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            acquires: c.acquires.load(Ordering::Relaxed),
            releases: c.releases.load(Ordering::Relaxed),
            fresh: c.fresh.load(Ordering::Relaxed),
            recycled: c.recycled.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
            high_water: c.high_water.load(Ordering::Relaxed),
        }
    }

    /// Number of idle arrays currently held by the pool.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the pool panicked while holding the lock.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.lock().expect("array pool poisoned").len()
    }

    fn fresh(&self) -> ComputeArray {
        match self.zero_row {
            Some(row) => ComputeArray::with_zero_row(row).expect("row validated at pool creation"),
            None => ComputeArray::new(),
        }
    }

    fn release(&self, mut arr: ComputeArray) {
        // Reset outside the lock: the 8KB clear is the expensive part and
        // must not serialize concurrent releasers (a wasted reset on an
        // over-cap array that gets dropped below is harmless).
        arr.reset();
        self.counters.releases.fetch_add(1, Ordering::Relaxed);
        let mut free = self.free.lock().expect("array pool poisoned");
        if free.len() < self.max_idle {
            free.push(arr);
        } else {
            // Drop: the pool is at its retention cap.
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for ArrayPool {
    fn default() -> Self {
        ArrayPool::new()
    }
}

/// A checked-out array; dereferences to [`ComputeArray`] and returns the
/// (cleared) array to its [`ArrayPool`] on drop.
#[derive(Debug)]
pub struct PooledArray<'p> {
    arr: Option<ComputeArray>,
    pool: &'p ArrayPool,
}

impl Deref for PooledArray<'_> {
    type Target = ComputeArray;
    fn deref(&self) -> &ComputeArray {
        self.arr.as_ref().expect("array present until drop")
    }
}

impl DerefMut for PooledArray<'_> {
    fn deref_mut(&mut self) -> &mut ComputeArray {
        self.arr.as_mut().expect("array present until drop")
    }
}

impl Drop for PooledArray<'_> {
    fn drop(&mut self) {
        if let Some(arr) = self.arr.take() {
            self.pool.release(arr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MicroOps, Operand};

    #[test]
    fn recycles_instead_of_reallocating() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        assert_eq!(pool.idle(), 1, "probe array is retained");
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2, "both handles returned their arrays");
        {
            let _a = pool.acquire();
            assert_eq!(pool.idle(), 1, "second array stays pooled");
        }
    }

    #[test]
    fn recycled_arrays_come_back_clean() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        let op = Operand::new(0, 16).unwrap();
        {
            let mut arr = pool.acquire();
            arr.poke_lane(7, op, 0xBEEF);
            arr.preset_tag(true);
            arr.preset_carry(true);
            let other = Operand::new(16, 16).unwrap();
            let scratch = Operand::new(32, 17).unwrap();
            arr.poke_lane(7, other, 1);
            arr.add(op, other, scratch).unwrap();
            assert!(arr.stats().compute_cycles > 0);
        }
        let arr = pool.acquire();
        assert_eq!(arr.peek_lane(7, op), 0, "cells cleared");
        assert!(!arr.tag().get(7), "tag latches cleared");
        assert!(!arr.carry().get(7), "carry latches cleared");
        assert_eq!(arr.stats().total_cycles(), 0, "stats cleared");
        assert_eq!(arr.zero_row(), Some(255), "zero row preserved");
    }

    #[test]
    fn idle_retention_is_capped() {
        let pool = ArrayPool::with_zero_row(255).unwrap().with_max_idle(2);
        assert_eq!(pool.max_idle(), 2);
        {
            // A burst of 5 concurrent checkouts (high-water mark 5)...
            let _burst: Vec<_> = (0..5).map(|_| pool.acquire()).collect();
            assert_eq!(pool.idle(), 0);
        }
        // ...must not leave 5 arrays idle forever.
        assert_eq!(pool.idle(), 2, "retention capped at max_idle");
        // The pool still recycles within the cap.
        {
            let _a = pool.acquire();
            assert_eq!(pool.idle(), 1);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn default_cap_bounds_bursty_threaded_runs() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = &pool;
                scope.spawn(move || {
                    let _burst: Vec<_> = (0..32).map(|_| pool.acquire()).collect();
                });
            }
        });
        assert!(
            pool.idle() <= ArrayPool::DEFAULT_MAX_IDLE,
            "idle {} exceeds the default cap",
            pool.idle()
        );
    }

    #[test]
    fn stats_track_checkout_and_recycle_events() {
        let pool = ArrayPool::with_zero_row(255).unwrap().with_max_idle(1);
        assert_eq!(pool.stats(), PoolStats::default(), "fresh pool is silent");
        {
            let _a = pool.acquire(); // recycles the probe array
            let _b = pool.acquire(); // constructs fresh
            let s = pool.stats();
            assert_eq!(s.acquires, 2);
            assert_eq!(s.releases, 0);
            assert_eq!(s.outstanding(), 2);
            assert_eq!((s.recycled, s.fresh), (1, 1));
            assert!(s.high_water >= 2);
        }
        let s = pool.stats();
        assert_eq!(s.releases, 2, "both handles released");
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.dropped, 1, "second release exceeded the idle cap");
    }

    #[test]
    fn stats_are_deterministic_across_thread_counts() {
        // acquires/releases depend only on the job structure, not on
        // scheduling — the property the verifier's pool reconciliation
        // rests on. fresh/recycled/high_water may differ; the totals not.
        let totals: Vec<(u64, u64)> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let pool = ArrayPool::with_zero_row(255).unwrap();
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        let pool = &pool;
                        scope.spawn(move || {
                            for _ in 0..(64 / workers) {
                                let _arr = pool.acquire();
                            }
                        });
                    }
                });
                let s = pool.stats();
                (s.acquires, s.releases)
            })
            .collect();
        assert_eq!(totals[0], (64, 64));
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn pool_without_zero_row_hands_out_plain_arrays() {
        let pool = ArrayPool::new();
        let arr = pool.acquire();
        assert_eq!(arr.zero_row(), None);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        let op = Operand::new(0, 8).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..8 {
                        let mut arr = pool.acquire();
                        arr.poke_lane(0, op, (t + i) % 256);
                        assert_eq!(arr.peek_lane(0, op), (t + i) % 256);
                    }
                });
            }
        });
        assert!(pool.idle() >= 1);
    }
}
