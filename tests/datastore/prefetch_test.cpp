// The prefetch pipeline: StoreFeed vs. the legacy DataLoader (bit-identical
// batch streams under the trainer's exact interleaving), EpochView sharding,
// and the concurrent-reader hammer the ASan job leans on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_mnist.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/epoch_view.hpp"
#include "datastore/prefetcher.hpp"
#include "datastore/sample_store.hpp"
#include "datastore/shuffle_service.hpp"
#include "datastore/stats.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::datastore {
namespace {

void expect_same_tensor(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(da[i], db[i]) << "flat index " << i;
  }
}

TEST(ShuffleServiceTest, SharesTheLoadersFisherYatesExactly) {
  // Same seed, same length -> ShuffleService and DataLoader::reshuffle must
  // draw the identical permutation (both delegate to common::Rng::shuffle)
  // and leave their Rng streams in the same state.
  const data::Dataset dataset = data::make_synthetic_mnist(40, 11);
  common::Rng rng_loader(testsupport::deterministic_seed());
  common::Rng rng_service(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, 8);
  ShuffleService service(dataset.size());
  EXPECT_EQ(service.order(), loader.order());  // both start at identity
  for (int epoch = 0; epoch < 5; ++epoch) {
    loader.reshuffle(rng_loader);
    service.reshuffle(rng_service);
    EXPECT_EQ(service.order(), loader.order());
  }
  EXPECT_EQ(rng_loader(), rng_service());  // streams advanced identically
}

TEST(StoreFeedTest, MatchesDataLoaderUnderTrainerInterleaving) {
  // Replicate CellTrainer's exact consumption pattern — reshuffle interleaved
  // with draws on ONE rng stream, a peek before every consuming read — and
  // require bit-identical tensors from both planes at every step.
  const data::Dataset dataset = data::make_synthetic_mnist(50, 17);
  const std::size_t batch = 8;  // 6 batches/epoch, tail dropped
  common::Rng rng_legacy(testsupport::deterministic_seed());
  common::Rng rng_store(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, batch);
  StoreFeed feed(SampleStore::adopt(dataset), batch);
  ASSERT_EQ(feed.batches_per_epoch(), loader.batches_per_epoch());

  loader.reshuffle(rng_legacy);
  feed.reshuffle(rng_store);
  std::size_t next = 0;
  for (int draw = 0; draw < 40; ++draw) {
    if (next >= loader.batches_per_epoch()) {
      loader.reshuffle(rng_legacy);
      feed.reshuffle(rng_store);
      next = 0;
    }
    // Peek (evaluate_center_fitness), then consume (train) the same index.
    expect_same_tensor(feed.batch(next), loader.batch(next));
    expect_same_tensor(feed.batch(next), loader.batch(next));
    ++next;
  }
  EXPECT_EQ(feed.order(), loader.order());
}

TEST(StoreFeedTest, RestoreOrderReplaysCheckpointedEpoch) {
  const data::Dataset dataset = data::make_synthetic_mnist(32, 23);
  common::Rng rng(testsupport::deterministic_seed());
  data::DataLoader loader(dataset, 8);
  loader.reshuffle(rng);
  const std::vector<std::uint32_t> saved = loader.order();

  StoreFeed feed(SampleStore::adopt(dataset), 8);
  feed.restore_order(saved);  // the checkpoint-resume path
  EXPECT_EQ(feed.order(), saved);
  for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) {
    expect_same_tensor(feed.batch(i), loader.batch(i));
  }
}

TEST(StoreFeedTest, MakeFeedResolvesPlanes) {
  const data::Dataset dataset = data::make_synthetic_mnist(24, 29);
  auto legacy = make_feed(DataPlane::kLegacy, dataset, 8);
  auto store = make_feed(DataPlane::kStore, dataset, 8);
  EXPECT_EQ(legacy->plane(), DataPlane::kLegacy);
  EXPECT_EQ(store->plane(), DataPlane::kStore);
  EXPECT_EQ(legacy->batches_per_epoch(), store->batches_per_epoch());
  // Identity order at construction: both serve the same batches untouched.
  for (std::size_t i = 0; i < store->batches_per_epoch(); ++i) {
    expect_same_tensor(store->batch(i), legacy->batch(i));
  }
}

TEST(StoreFeedTest, CountersAccountForEveryRead) {
  const data::Dataset dataset = data::make_synthetic_mnist(64, 31);
  StoreFeed feed(SampleStore::adopt(dataset), 8);
  common::Rng rng(testsupport::deterministic_seed());
  const StatsSnapshot before = stats().snapshot();
  std::size_t reads = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    feed.reshuffle(rng);
    for (std::size_t i = 0; i < feed.batches_per_epoch(); ++i) {
      (void)feed.batch(i);
      ++reads;
    }
  }
  Prefetcher::global().drain();
  const StatsSnapshot after = stats().snapshot();
  // Every batch() resolved exactly one way: staged hit, waited-for stage, or
  // synchronous stall.
  EXPECT_EQ((after.prefetch_hits - before.prefetch_hits) +
                (after.prefetch_stalls - before.prefetch_stalls),
            reads);
  EXPECT_GE(after.staged_batches, before.staged_batches);
  EXPECT_GE(after.staging_depth, 1u);
}

TEST(EpochViewTest, ShardsPartitionTheEpochsBatches) {
  const data::Dataset dataset = data::make_synthetic_mnist(60, 37);
  auto store = SampleStore::adopt(dataset);
  ShuffleService shuffle(dataset.size());
  common::Rng rng(testsupport::deterministic_seed());
  shuffle.reshuffle(rng);
  const EpochView full(store, shuffle.order(), 6);  // 10 batches

  for (std::size_t lanes : {1u, 2u, 3u, 4u, 7u}) {
    std::size_t covered = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const EpochView shard = full.shard(lane, lanes);
      for (std::size_t b = 0; b < shard.batches(); ++b) {
        expect_same_tensor(shard.batch(b), full.batch(covered + b));
      }
      covered += shard.batches();
    }
    EXPECT_EQ(covered, full.batches()) << lanes << " lanes";
  }
}

TEST(EpochViewTest, ConcurrentShardedReadersSeeConsistentData) {
  // The ASan hammer: many lanes reading overlapping + sharded views of one
  // store concurrently. Every read must reproduce the single-threaded
  // reference exactly; any data race trips the sanitizer job.
  const data::Dataset dataset = data::make_synthetic_mnist(96, 41);
  auto store = SampleStore::adopt(dataset);
  ShuffleService shuffle(dataset.size());
  common::Rng rng(testsupport::deterministic_seed());
  shuffle.reshuffle(rng);
  const std::size_t batch = 8;
  const EpochView full(store, shuffle.order(), batch);

  std::vector<tensor::Tensor> reference;
  for (std::size_t b = 0; b < full.batches(); ++b) reference.push_back(full.batch(b));

  const std::size_t lanes = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      const EpochView shard = full.shard(lane, lanes);
      const std::size_t base = full.batches() * lane / lanes;
      for (int iter = 0; iter < 50; ++iter) {
        // Sharded read...
        for (std::size_t b = 0; b < shard.batches(); ++b) {
          const tensor::Tensor got = shard.batch(b);
          const auto want = reference[base + b].data();
          const auto have = got.data();
          for (std::size_t i = 0; i < have.size(); ++i) {
            if (have[i] != want[i]) {
              mismatches.fetch_add(1);
              return;
            }
          }
        }
        // ...and an overlapping full-view read from every lane.
        const std::size_t b = (lane + static_cast<std::size_t>(iter)) % full.batches();
        const tensor::Tensor got = full.batch(b);
        const auto want = reference[b].data();
        const auto have = got.data();
        for (std::size_t i = 0; i < have.size(); ++i) {
          if (have[i] != want[i]) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EpochViewTest, ConcurrentStoreFeedsShareOneStore) {
  // Several feeds (as parallel lanes would create) over one interned store,
  // each on its own thread with its own rng/order, all prefetching through
  // the shared pool — every feed must match its private legacy loader.
  const data::Dataset dataset = data::make_synthetic_mnist(48, 43);
  const std::size_t lanes = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      common::Rng rng_a(testsupport::deterministic_seed(lane));
      common::Rng rng_b(testsupport::deterministic_seed(lane));
      data::DataLoader loader(dataset, 8);
      StoreFeed feed(SampleStore::for_dataset(dataset), 8);
      for (int epoch = 0; epoch < 4; ++epoch) {
        loader.reshuffle(rng_a);
        feed.reshuffle(rng_b);
        for (std::size_t i = 0; i < loader.batches_per_epoch(); ++i) {
          const tensor::Tensor want = loader.batch(i);
          const tensor::Tensor have = feed.batch(i);
          const auto a = want.data();
          const auto b = have.data();
          for (std::size_t j = 0; j < a.size(); ++j) {
            if (a[j] != b[j]) {
              mismatches.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cellgan::datastore
