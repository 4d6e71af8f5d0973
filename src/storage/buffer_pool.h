#ifndef ANNLIB_STORAGE_BUFFER_POOL_H_
#define ANNLIB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "obs/obs.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace ann {

class BufferPool;

/// \brief RAII pin on a buffer-pool frame.
///
/// While a PinnedPage is alive the underlying frame cannot be evicted.
/// Move-only; unpins on destruction. Call MarkDirty() after modifying the
/// page contents so the frame is written back before eviction.
///
/// page_id() reports the *logical* page id the caller fetched. On the
/// copy-on-write path (FetchForWrite, or any Fetch of a page with
/// published versions) the frame underneath holds a different *physical*
/// page; the translation is the buffer pool's business and callers never
/// see physical ids.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(PinnedPage&& other) noexcept { *this = std::move(other); }
  PinnedPage& operator=(PinnedPage&& other) noexcept;
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  ~PinnedPage() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  // The payload pointer and the dirty flag are captured under the stripe
  // latch when the pin is taken, and the pin keeps the frame resident, so
  // these accessors are plain pointer reads — no latch, no thread-safety
  // escape hatch needed (the frame cannot be evicted, flushed or reused
  // while this handle is alive).
  char* data() {
    ANNLIB_DCHECK(valid());
    return data_;
  }
  const char* data() const {
    ANNLIB_DCHECK(valid());
    return data_;
  }

  /// Marks the frame dirty (must be called after any mutation). The flag
  /// is atomic because concurrent pinners of one page may both set it;
  /// eviction and flushing read it under the latch once unpinned.
  void MarkDirty() {
    ANNLIB_DCHECK(valid());
    dirty_->store(true, std::memory_order_relaxed);
  }

  /// Unpins early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PinnedPage(BufferPool* pool, size_t stripe, size_t frame, PageId id,
             char* data, std::atomic<bool>* dirty)
      : pool_(pool),
        stripe_(stripe),
        frame_(frame),
        page_id_(id),
        data_(data),
        dirty_(dirty) {}

  BufferPool* pool_ = nullptr;
  size_t stripe_ = 0;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  char* data_ = nullptr;
  std::atomic<bool>* dirty_ = nullptr;
};

/// \brief Epoch-pinning read snapshot over a BufferPool.
///
/// A PageSnapshot freezes the pool's committed state as of the epoch at
/// which it was opened: Fetch(id, snap) resolves each logical page to the
/// newest physical version no later than that epoch. While any snapshot
/// of an epoch is alive, pages superseded after it are retained (epoch GC
/// skips them); the last release of an epoch makes its retired pages
/// reclaimable. Copyable and cheap (shared epoch pin); a default-
/// constructed snapshot is invalid and means "read the current state".
class PageSnapshot {
 public:
  PageSnapshot() = default;

  bool valid() const { return pin_ != nullptr; }
  uint64_t epoch() const;

 private:
  friend class BufferPool;
  struct EpochPin;
  explicit PageSnapshot(std::shared_ptr<const EpochPin> pin)
      : pin_(std::move(pin)) {}
  std::shared_ptr<const EpochPin> pin_;
};

/// Cumulative counters for the versioned-page (COW + epoch) machinery.
/// "retired" counts physical pages superseded by a commit; "reclaimed"
/// counts retired pages whose epoch drained and whose storage went back
/// on the free list — at quiesce (no snapshots, no open batch) the two
/// are equal.
struct VersionStats {
  uint64_t epoch = 0;              ///< current committed epoch
  uint64_t batches_committed = 0;  ///< write batches committed
  uint64_t cow_clones = 0;         ///< FetchForWrite page clones
  uint64_t snapshots_opened = 0;
  uint64_t pages_retired = 0;
  uint64_t pages_reclaimed = 0;
  size_t live_chains = 0;      ///< logical pages with version chains
  size_t retired_pending = 0;  ///< retired, awaiting epoch drain
  size_t free_physical = 0;    ///< reclaimed pages ready for reuse
};

/// Frame replacement policy.
enum class Replacement {
  kLru,    ///< exact least-recently-used (list-based)
  kClock,  ///< second-chance clock sweep (approximates LRU cheaply)
};

inline const char* ToString(Replacement r) {
  return r == Replacement::kClock ? "CLOCK" : "LRU";
}

/// One queryable snapshot of a pool's behaviour: the cumulative I/O
/// counters plus the instantaneous occupancy numbers, so callers get the
/// full picture from a single accessor instead of four.
struct BufferPoolStats {
  IoStats io;             ///< hits, misses, evictions, write-backs
  size_t capacity = 0;    ///< frames in the pool
  size_t cached_pages = 0;
  size_t pinned_pages = 0;

  double hit_rate() const {
    const uint64_t total = io.pool_hits + io.pool_misses;
    return total == 0 ? 0.0 : static_cast<double>(io.pool_hits) / total;
  }
};

/// \brief Fixed-capacity buffer pool over a DiskManager (LRU or CLOCK),
/// safe under concurrent Fetch/Unpin.
///
/// This is the stand-in for the SHORE buffer manager used in the paper's
/// experiments (512 KB = 64 frames of 8 KB by default). All index and
/// baseline page accesses flow through Fetch(), so pool hits/misses — and
/// therefore the simulated I/O cost — reflect each algorithm's true access
/// locality. Frames holding pinned pages are never evicted; Fetch fails
/// with OutOfRange if every candidate frame is pinned. The candidate
/// frames are the capacity/num_stripes frames of the page's stripe (the
/// first capacity % num_stripes stripes get one more; see below), not the
/// whole pool. Under concurrency that OutOfRange is transient: it lasts
/// only while other threads hold those pins, so a caller that holds no
/// pin may retry.
///
/// Concurrency: frames are partitioned into `num_stripes` stripes by page
/// id (`id % num_stripes`), each stripe owning its own latch, page table,
/// free list and replacement state. A Fetch/Unpin touches exactly one
/// stripe, so readers on different stripes never contend; I/O counters are
/// atomic and exact under any interleaving. With the default single stripe
/// the replacement behaviour is bit-identical to the classic sequential
/// pool (one global LRU/CLOCK); more stripes trade global LRU fidelity for
/// concurrency, the standard DBMS latch-striping compromise. FlushAll and
/// Reset are not safe concurrent with Fetch — call them between runs.
///
/// Lock discipline: every stripe latch carries kMutexRankBufferPoolStripe,
/// so holding two stripe latches at once is a rank violation — full-pool
/// walkers (Stats()/pinned_pages()/cached_pages()/FlushAll and the
/// invariant checker) iterate stripes in index order holding ONE latch at
/// a time, which is why their snapshots are per-stripe-consistent rather
/// than globally atomic. The disk manager's internal latches rank after
/// the stripe latch (Fetch reads from disk under the latch). The version
/// latch (kMutexRankBufferPoolVersion) ranks before the stripe latches:
/// Fetch resolves logical→physical under it first, and epoch GC purges
/// stripe cache entries while holding it.
///
/// **Versioned pages (copy-on-write + epoch snapshots).** Page ids handed
/// out by NewPage are *logical* ids and stay valid forever. A writer
/// brackets its mutations with BeginWriteBatch/CommitWriteBatch and edits
/// pages through FetchForWrite, which clones the current physical page
/// into a fresh one private to the batch. Commit publishes all clones
/// atomically under a new epoch and retires the superseded physical
/// pages; OpenSnapshot pins the current epoch so concurrent readers keep
/// resolving every logical id to the version they started with. Retired
/// pages are reclaimed (returned to a physical free list reused by later
/// clones) as soon as no snapshot's epoch precedes their retire epoch.
///
/// Concurrency contract for versioned pools: one writer at a time (a
/// second BeginWriteBatch fails). Readers that need a stable point-in-
/// time image must read through snapshots; a plain Fetch racing a commit
/// returns SOME fully committed version of the page (pre- or post-batch,
/// never torn or recycled bytes — the pin is revalidated against the
/// version table and retried if a commit+GC cycle recycled the resolved
/// physical page underneath it), and the batch owner's own Fetch
/// resolves to its uncommitted shadow pages (read-your-writes). Static
/// pools (no batches ever) are unaffected: Fetch takes a lock-free fast
/// path straight to the stripes.
class BufferPool {
 public:
  /// \param num_frames pool capacity in pages (>= 1).
  /// \param num_stripes latch stripes (clamped to [1, num_frames]); frames
  ///   are split evenly across stripes.
  BufferPool(DiskManager* disk, size_t num_frames,
             Replacement replacement = Replacement::kLru,
             size_t num_stripes = 1);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Pins logical page `id` at its newest committed version (the batch
  /// owner sees its own uncommitted clones), reading from disk on a miss.
  /// Thread-safe; see the class comment for the versioned-pool contract.
  Result<PinnedPage> Fetch(PageId id);

  /// Pins logical page `id` as of `snap`'s epoch. An invalid snapshot
  /// reads the current state. Thread-safe.
  Result<PinnedPage> Fetch(PageId id, const PageSnapshot& snap);

  /// Allocates a new page on disk and pins it (zero-filled, marked dirty).
  /// Thread-safe. Inside a write batch the page is private to the batch
  /// until commit (an aborted batch frees it for clone reuse).
  Result<PinnedPage> NewPage();

  // --- Versioned page API (copy-on-write + epoch snapshots) -------------

  /// Pins a *writable* copy of logical page `id` for the open write
  /// batch: the first call clones the current version into a fresh
  /// physical page (the clone is reused on subsequent calls). Only the
  /// thread that opened the batch may call this. Fails with
  /// InvalidArgument when no batch is open.
  Result<PinnedPage> FetchForWrite(PageId id);

  /// Opens a single-writer batch. All FetchForWrite clones and NewPage
  /// allocations until CommitWriteBatch stay invisible to other threads.
  Status BeginWriteBatch();

  /// Publishes every page cloned by the batch under a new epoch, retires
  /// the superseded physical pages, and runs epoch GC. No pins on the
  /// batch's clones may be outstanding.
  Status CommitWriteBatch();

  /// Drops the batch's clones (their storage is recycled) without
  /// publishing. Pages allocated by NewPage inside the batch are recycled
  /// too — the caller's own bookkeeping is its responsibility.
  Status AbortWriteBatch();

  /// Pins the current committed epoch and returns a handle for
  /// snapshot-relative Fetch. Thread-safe.
  Result<PageSnapshot> OpenSnapshot();

  /// Warms the cache with logical page `id` ahead of a demand Fetch — the
  /// asynchronous-readahead entry point (called from the Prefetcher's IO
  /// thread; `scratch` is the caller's reusable read buffer). Purely
  /// advisory: returns true when the page was admitted, false when the
  /// hint was declined, and correctness NEVER depends on the answer — a
  /// declined hint just means the demand path faults synchronously.
  ///
  /// Admission rules (the "do no harm" contract):
  ///  - never evicts a pinned or dirty frame (clean coldest-LRU victim or
  ///    a free frame only; under CLOCK replacement, free frames only);
  ///  - at most capacity/4 admitted-but-unread frames at a time, so
  ///    readahead cannot wash out the demand working set;
  ///  - on a versioned pool a valid snapshot is required: its epoch pin
  ///    keeps the resolved physical page from being reclaimed and
  ///    recycled during the latch-free disk read (the demand path's
  ///    pin-and-revalidate defense is unavailable here, so a hint with no
  ///    snapshot on a versioned pool is declined outright);
  ///  - callers must not be concurrently dirtying the hinted page through
  ///    pins (the engine's read-only traversal guarantees this; dirty
  ///    *cached* copies are harmless — a resident page declines the hint).
  ///
  /// The disk read runs with NO pool latch held: a synchronous faulter on
  /// the same stripe proceeds while the prefetch IO is in flight, which
  /// is the entire point of the background thread.
  bool PrefetchPage(PageId id, const PageSnapshot& snap, Page* scratch);

  /// Current committed epoch (0 until the first commit).
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  bool write_batch_open() const;

  /// Snapshot of the COW/epoch counters. Takes the version latch.
  VersionStats version_stats() const;

  /// Writes back all dirty frames (pages stay cached). Not concurrent-safe
  /// with writers holding pins.
  Status FlushAll();

  /// Flushes and drops every cached page, then changes capacity. All pages
  /// must be unpinned. Used by benchmarks to switch between the large
  /// build-time pool and the small query-time pool. Keeps the stripe count.
  Status Reset(size_t num_frames);

  size_t capacity() const { return capacity_; }
  size_t num_stripes() const { return stripes_.size(); }
  Replacement replacement() const { return replacement_; }
  size_t pinned_pages() const;
  size_t cached_pages() const;

  IoStats stats() const { return stats_.Load(); }
  void ResetStats() { stats_.Reset(); }

  /// Full public statistics snapshot (counters + occupancy). Takes each
  /// stripe latch in index order, one at a time (see class comment).
  BufferPoolStats Stats() const {
    return BufferPoolStats{stats(), capacity_, cached_pages(),
                           pinned_pages()};
  }

  DiskManager* disk() const { return disk_; }

 private:
  friend class PinnedPage;
  friend struct PageSnapshot::EpochPin;
  // Structural validator and fault injector (src/check): they walk (and,
  // for the test peer, deliberately corrupt) the stripe state under the
  // stripe latches.
  friend Status CheckBufferPoolInvariants(const BufferPool& pool);
  friend class BufferPoolTestPeer;

  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    // Atomic because MarkDirty runs without the stripe latch (the frame is
    // pinned) and concurrent pinners of one page may both set it; eviction
    // and flushing read it under the latch with no writer possible (only
    // unpinned frames are flushed). Relaxed is enough for a sticky flag.
    std::atomic<bool> dirty{false};
    bool in_lru = false;
    bool referenced = false;  // CLOCK second-chance bit
    // Admitted by PrefetchPage and not yet demanded. Cleared (and the
    // outstanding-prefetch budget refunded) on first pin, eviction or
    // purge; a pin that clears it counts one prefetch hit.
    bool prefetched = false;
    std::list<size_t>::iterator lru_pos;
  };

  /// One latch domain: a fixed slice of the pool's frames plus the lookup
  /// and replacement state for the pages hashed to it. All state hangs off
  /// `mu`; Frame fields inherit the guard through the `frames` vector
  /// (except the pin-protocol accesses in PinnedPage, documented there).
  struct Stripe {
    mutable Mutex mu{"bufferpool.stripe", kMutexRankBufferPoolStripe};
    std::vector<Frame> frames ANNLIB_GUARDED_BY(mu);
    std::vector<size_t> free_frames ANNLIB_GUARDED_BY(mu);
    // front = least recently used, unpinned only
    std::list<size_t> lru ANNLIB_GUARDED_BY(mu);
    size_t clock_hand ANNLIB_GUARDED_BY(mu) = 0;
    std::unordered_map<PageId, size_t> page_table ANNLIB_GUARDED_BY(mu);
  };

  /// One link in a logical page's version chain: the physical page that
  /// held the logical page's contents from `epoch` until superseded.
  struct PageVersion {
    uint64_t epoch = 0;
    PageId physical = kInvalidPageId;
  };

  /// A physical page superseded at `retire_epoch`, awaiting epoch drain.
  struct RetiredPage {
    PageId logical = kInvalidPageId;
    PageId physical = kInvalidPageId;
    uint64_t retire_epoch = 0;
  };

  size_t StripeIndexFor(PageId id) const { return id % stripes_.size(); }
  void Unpin(size_t stripe_index, size_t frame_index);
  // Returns a frame index available for (re)use within the stripe,
  // evicting its least recently used unpinned frame if necessary.
  Result<size_t> GetVictimFrame(Stripe& stripe) ANNLIB_REQUIRES(stripe.mu);
  Status FlushFrame(Stripe& stripe, Frame& frame)
      ANNLIB_REQUIRES(stripe.mu);
  void InitStripes();

  /// Pins `physical` (reading from disk on a miss) but stamps the handle
  /// with `logical` — the translated Fetch path.
  Result<PinnedPage> PinPhysical(PageId physical, PageId logical);
  /// Grabs a frame for `physical` without a disk read (contents will be
  /// fully overwritten) — the COW clone-target path.
  Result<PinnedPage> PinFresh(PageId physical, PageId logical);

  /// Resolves `logical` to the physical page to read: the batch owner's
  /// shadow if any, else the newest committed version, or — with `snap`
  /// valid — the newest version no later than the snapshot epoch.
  Result<PageId> ResolveRead(PageId logical, const PageSnapshot* snap);

  /// Drops an epoch reference; the last release triggers GC.
  void ReleaseEpoch(uint64_t epoch);

  /// Reclaims every retired page whose retire epoch no live snapshot
  /// precedes: purges it from the stripe cache (skipping pinned frames —
  /// retried next pass), trims its chain link, and recycles its storage.
  void RunGcLocked() ANNLIB_REQUIRES(version_mu_);

  /// Takes a physical page off the free list, or allocates from disk.
  Result<PageId> AcquirePhysicalLocked() ANNLIB_REQUIRES(version_mu_);

  /// Drops `physical` from its stripe's cache so its frame can be reused.
  /// Returns false if the frame is currently pinned.
  bool PurgeCachedPage(PageId physical);

  /// Clears a frame's prefetched mark and refunds the outstanding-
  /// prefetch budget (no-op when not set). Callers hold the stripe latch;
  /// the counter itself is atomic.
  void ClearPrefetched(Frame& frame) {
    if (frame.prefetched) {
      frame.prefetched = false;
      prefetched_outstanding_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Validates one stripe's bookkeeping (defined in check/invariants.cc;
  /// the public entry point CheckBufferPoolInvariants takes the latch and
  /// loops over stripes).
  static Status CheckStripeInvariants(const BufferPool& pool, size_t si,
                                      const Stripe& stripe)
      ANNLIB_REQUIRES(stripe.mu);

  /// Validates the version table: chain monotonicity, physical-page
  /// uniqueness across chains / free list / batch shadows, retired-page
  /// accounting (retired == reclaimed + pending), epoch refcounts, and
  /// batch-state coherence (defined in check/invariants.cc).
  static Status CheckVersionInvariants(const BufferPool& pool)
      ANNLIB_REQUIRES(pool.version_mu_);

  DiskManager* disk_;
  size_t capacity_;
  Replacement replacement_;
  size_t stripes_pref_;  // requested stripe count, re-clamped on Reset
  std::vector<std::unique_ptr<Stripe>> stripes_;
  AtomicIoStats stats_;

  // Frames admitted by PrefetchPage and not yet demanded/evicted; capped
  // at capacity/4 so readahead cannot wash out the demand working set.
  std::atomic<size_t> prefetched_outstanding_{0};
  // LRU probes from the cold end when hunting a clean prefetch victim;
  // past this many consecutive dirty frames the hint is declined.
  static constexpr size_t kPrefetchVictimProbes = 8;

  // --- Version state (logical→physical translation, epochs, GC) ---------
  mutable Mutex version_mu_{"bufferpool.version",
                            kMutexRankBufferPoolVersion};
  // Version chains, keyed by logical id; a logical page absent from the
  // map is identity-mapped (physical == logical). Entries are sorted by
  // strictly increasing epoch; the back is the current version.
  std::unordered_map<PageId, std::vector<PageVersion>> versions_
      ANNLIB_GUARDED_BY(version_mu_);
  std::vector<RetiredPage> retired_ ANNLIB_GUARDED_BY(version_mu_);
  // Reclaimed physical pages, reusable as clone targets. Never handed out
  // as logical ids: a page that has carried a logical identity may only
  // ever serve as backing storage afterwards.
  std::vector<PageId> free_physical_ ANNLIB_GUARDED_BY(version_mu_);
  // Live snapshot refcounts per epoch (ordered: begin() = oldest).
  std::map<uint64_t, uint32_t> active_epochs_ ANNLIB_GUARDED_BY(version_mu_);
  std::atomic<uint64_t> current_epoch_{0};
  // True once any batch/version exists — gates the Fetch fast path.
  std::atomic<bool> has_versions_{false};

  bool batch_open_ ANNLIB_GUARDED_BY(version_mu_) = false;
  std::thread::id batch_owner_ ANNLIB_GUARDED_BY(version_mu_);
  // logical → private physical clone, for the open batch.
  std::unordered_map<PageId, PageId> batch_shadow_
      ANNLIB_GUARDED_BY(version_mu_);
  // Logical pages created (NewPage) inside the open batch; identity-
  // mapped and already private, so FetchForWrite skips the clone.
  std::unordered_map<PageId, bool> batch_created_
      ANNLIB_GUARDED_BY(version_mu_);

  // Cumulative version counters (exact, guarded) with obs mirrors below.
  uint64_t batches_committed_ ANNLIB_GUARDED_BY(version_mu_) = 0;
  uint64_t cow_clones_ ANNLIB_GUARDED_BY(version_mu_) = 0;
  uint64_t snapshots_opened_ ANNLIB_GUARDED_BY(version_mu_) = 0;
  uint64_t pages_retired_ ANNLIB_GUARDED_BY(version_mu_) = 0;
  uint64_t pages_reclaimed_ ANNLIB_GUARDED_BY(version_mu_) = 0;

  // Global-registry mirrors of stats_ (handles resolved once, here).
  obs::Counter* obs_hits_ = obs::GetCounter("storage.pool.hits");
  obs::Counter* obs_misses_ = obs::GetCounter("storage.pool.misses");
  obs::Counter* obs_evictions_ = obs::GetCounter("storage.pool.evictions");
  obs::Counter* obs_writebacks_ = obs::GetCounter("storage.pool.writebacks");
  obs::Counter* obs_cow_clones_ = obs::GetCounter("storage.cow_clones");
  obs::Counter* obs_snapshots_ = obs::GetCounter("storage.snapshots_opened");
  obs::Counter* obs_batches_ = obs::GetCounter("storage.write_batches");
  obs::Counter* obs_retired_ =
      obs::GetCounter("storage.epoch_pages_retired");
  obs::Counter* obs_reclaimed_ =
      obs::GetCounter("storage.epoch_pages_reclaimed");
  // Out-of-core instrumentation. io.stall_ns is the wall time demand
  // fetches spend blocked on a synchronous disk read (the PinPhysical
  // miss path); prefetch reads are timed separately under
  // io.prefetch_ns, so stall/prefetch split total read time into "the
  // query waited" vs "the IO thread overlapped". Atomic counters, not a
  // PhaseTimer: misses happen concurrently on many threads and
  // PhaseTimers are unsynchronized by contract.
  obs::Counter* obs_io_stall_ns_ = obs::GetCounter("storage.io.stall_ns");
  obs::Counter* obs_io_stall_reads_ =
      obs::GetCounter("storage.io.stall_reads");
  obs::Counter* obs_prefetch_ns_ =
      obs::GetCounter("storage.io.prefetch_ns");
  obs::Counter* obs_prefetch_hits_ =
      obs::GetCounter("storage.prefetch.hits");
};

}  // namespace ann

#endif  // ANNLIB_STORAGE_BUFFER_POOL_H_
