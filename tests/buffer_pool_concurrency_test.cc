// Concurrency behaviour of the striped buffer pool: correct page contents
// under parallel fetches, exact atomic counters, per-stripe capacity
// semantics, and stripe-count clamping. The single-stripe (default)
// replacement semantics are covered by buffer_pool_test.cc.

#include "storage/buffer_pool.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "test_util.h"

namespace ann {
namespace {

/// Allocates `n` pages whose first bytes hold the page id.
void SeedPages(MemDiskManager* disk, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    auto id = disk->AllocatePage();
    ASSERT_TRUE(id.ok());
    Page page;
    page.bytes.fill(std::byte{0});
    const PageId pid = *id;
    std::memcpy(page.data(), &pid, sizeof(pid));
    ASSERT_OK(disk->WritePage(*id, page));
  }
}

TEST(BufferPoolConcurrencyTest, StripeCountIsClamped) {
  MemDiskManager disk;
  BufferPool pool(&disk, 2, Replacement::kLru, 8);
  EXPECT_EQ(pool.num_stripes(), 2u);
  EXPECT_EQ(pool.capacity(), 2u);

  BufferPool one(&disk, 64, Replacement::kLru);
  EXPECT_EQ(one.num_stripes(), 1u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchesReturnCorrectPages) {
  constexpr size_t kPages = 256;
  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 2000;

  MemDiskManager disk;
  SeedPages(&disk, kPages);
  // 32 frames / 4 stripes = 8 frames per stripe, and each of the at most 8
  // threads holds one pin at a time, so no stripe can run out of unpinned
  // frames and every Fetch failure below is a real error. Fewer frames per
  // stripe than threads would make OutOfRange (pin exhaustion) possible.
  BufferPool pool(&disk, 32, Replacement::kLru, 4);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t, &mismatches, &failures] {
      uint64_t state = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const PageId id = static_cast<PageId>((state >> 33) % kPages);
        auto pinned = pool.Fetch(id);
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        PageId stored = kInvalidPageId;
        std::memcpy(&stored, pinned->data(), sizeof(stored));
        if (stored != id) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  // Atomic counters account for every fetch exactly.
  const IoStats io = pool.stats();
  EXPECT_EQ(io.pool_hits + io.pool_misses,
            static_cast<uint64_t>(kThreads) * kFetchesPerThread);
  EXPECT_EQ(pool.pinned_pages(), 0u);
  const BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.capacity, 32u);
  EXPECT_LE(stats.cached_pages, 32u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentNewPagesGetDistinctIds) {
  constexpr int kThreads = 8;
  constexpr int kPagesPerThread = 64;

  MemDiskManager disk;
  BufferPool pool(&disk, 1024, Replacement::kLru, 4);

  std::vector<std::vector<PageId>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ids, t] {
      for (int i = 0; i < kPagesPerThread; ++i) {
        auto pinned = pool.NewPage();
        if (pinned.ok()) ids[t].push_back(pinned->page_id());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<PageId> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(),
            static_cast<size_t>(kThreads) * kPagesPerThread);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate page id handed out";
  EXPECT_EQ(disk.page_count(), all.size());
}

TEST(BufferPoolConcurrencyTest, PinExhaustionIsPerStripe) {
  // capacity 2, stripes 2 -> one frame per stripe; pages map to stripes
  // by id % 2. Pinning page 0 fills stripe 0 entirely, so fetching page 2
  // (also stripe 0) must fail even though stripe 1 is empty.
  MemDiskManager disk;
  SeedPages(&disk, 4);
  BufferPool pool(&disk, 2, Replacement::kLru, 2);
  ASSERT_EQ(pool.num_stripes(), 2u);

  auto p0 = pool.Fetch(0);
  ASSERT_TRUE(p0.ok());
  auto p2 = pool.Fetch(2);
  ASSERT_FALSE(p2.ok());
  EXPECT_TRUE(p2.status().IsOutOfRange());

  // Stripe 1 still serves its own pages.
  auto p1 = pool.Fetch(1);
  ASSERT_TRUE(p1.ok());

  // Releasing the stripe-0 pin frees the frame for page 2.
  p0->Release();
  auto p2_again = pool.Fetch(2);
  EXPECT_TRUE(p2_again.ok());
}

TEST(BufferPoolConcurrencyTest, DirtyPagesSurviveConcurrentChurn) {
  // Writers mark their own page dirty under pin; churn from other stripes
  // forces evictions; FlushAll must persist every write exactly.
  //
  // capacity 8 over 4 stripes leaves 2 frames per stripe, so when one
  // writer is preempted three writers can hold pins on three pages of one
  // stripe and the next Fetch there returns OutOfRange. That is the
  // documented, transient pin-exhaustion contract, so the writer yields
  // and fetches the same page again. The retry ends: no thread waits
  // while holding a pin, and every pin is written, marked dirty and
  // released.
  constexpr size_t kPages = 64;
  MemDiskManager disk;
  SeedPages(&disk, kPages);
  BufferPool pool(&disk, 8, Replacement::kLru, 4);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t, &failures] {
      for (size_t i = 0; i < kPages; ++i) {
        auto pinned = pool.Fetch(static_cast<PageId>(i));
        while (!pinned.ok() && pinned.status().IsOutOfRange()) {
          std::this_thread::yield();
          pinned = pool.Fetch(static_cast<PageId>(i));
        }
        if (!pinned.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Byte 128+t is private to this thread; no write overlap.
        pinned->data()[128 + t] = static_cast<char>(t + 1);
        pinned->MarkDirty();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every page is fetched at least once into 8 frames, so at least
  // kPages - capacity of those fetches must have evicted a resident page.
  EXPECT_GE(pool.stats().evictions, kPages - pool.capacity());
  ASSERT_OK(pool.FlushAll());

  for (size_t i = 0; i < kPages; ++i) {
    Page page;
    ASSERT_OK(disk.ReadPage(static_cast<PageId>(i), &page));
    PageId stored = kInvalidPageId;
    std::memcpy(&stored, page.data(), sizeof(stored));
    EXPECT_EQ(stored, i);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(page.data()[128 + t], static_cast<char>(t + 1))
          << "page " << i << " lost thread " << t << "'s write";
    }
  }
}

}  // namespace
}  // namespace ann
