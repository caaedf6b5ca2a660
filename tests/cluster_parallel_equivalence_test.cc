// End-to-end determinism check for the parallel clustering engine: CAFC-C,
// CAFC-CH, and HAC must produce *identical* assignments at every thread
// count. This is the executable form of the ParallelFor contract (fixed
// chunking, disjoint writes, serial in-order reductions) — if any parallel
// loop races or reorders a floating-point reduction, the assignments
// diverge and these tests fail.
//
// The workbench is the full §4.1-shaped corpus (454 form pages), so the
// comparison covers the real hot paths: hub-cluster centroids, the
// Algorithm-3 distance matrix, the k-means assignment scan, and the HAC
// similarity matrix. Thread counts are forced explicitly because CI
// machines may expose a single core.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/cafc.h"
#include "gtest/gtest.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cafc {
namespace {

using bench::BuildWorkbench;
using bench::Workbench;

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Real worker threads even on a 1-core host.
    util::ThreadPool::SetDefaultThreads(4);
    wb_ = new Workbench(BuildWorkbench(42));
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
    util::ThreadPool::SetDefaultThreads(0);  // restore automatic sizing
  }

  static const Workbench& wb() { return *wb_; }

 private:
  static Workbench* wb_;
};

Workbench* ParallelEquivalenceTest::wb_ = nullptr;

constexpr int kK = 8;  // the paper's 8 domains
const int kThreadCounts[] = {1, 2, 4};

cluster::Clustering RunCafcC(const Workbench& wb, int threads) {
  CafcOptions options;
  options.threads = threads;
  Rng rng(1234);  // same seed per run — only the thread count varies
  return CafcC(wb.pages, kK, options, &rng);
}

TEST_F(ParallelEquivalenceTest, CafcCIdenticalAcrossThreadCounts) {
  cluster::Clustering serial = RunCafcC(wb(), 1);
  ASSERT_EQ(serial.assignment.size(), wb().pages.size());
  for (int threads : kThreadCounts) {
    cluster::Clustering parallel = RunCafcC(wb(), threads);
    EXPECT_EQ(parallel.num_clusters, serial.num_clusters)
        << "threads=" << threads;
    EXPECT_EQ(parallel.assignment, serial.assignment) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, CafcChIdenticalAcrossThreadCounts) {
  auto run = [&](int threads) {
    CafcChOptions options;
    options.cafc.threads = threads;
    return CafcCh(wb().pages, kK, options);
  };
  cluster::Clustering serial = run(1);
  ASSERT_EQ(serial.assignment.size(), wb().pages.size());
  for (int threads : kThreadCounts) {
    cluster::Clustering parallel = run(threads);
    EXPECT_EQ(parallel.num_clusters, serial.num_clusters)
        << "threads=" << threads;
    EXPECT_EQ(parallel.assignment, serial.assignment) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, HacIdenticalAcrossThreadCounts) {
  auto run = [&](int threads) {
    CafcOptions options;
    options.threads = threads;
    return CafcHac(wb().pages, kK, options);
  };
  cluster::Clustering serial = run(1);
  ASSERT_EQ(serial.assignment.size(), wb().pages.size());
  for (int threads : kThreadCounts) {
    cluster::Clustering parallel = run(threads);
    EXPECT_EQ(parallel.num_clusters, serial.num_clusters)
        << "threads=" << threads;
    EXPECT_EQ(parallel.assignment, serial.assignment) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, AverageCafcCIdenticalAcrossThreadCounts) {
  // The bench-level repeated-run averaging parallelizes across runs; its
  // serial in-run-order reduction must make the averages exact matches.
  CafcOptions serial_options;
  serial_options.threads = 1;
  bench::Quality serial =
      bench::AverageCafcC(wb(), kK, serial_options, /*runs=*/4);
  for (int threads : kThreadCounts) {
    CafcOptions options;
    options.threads = threads;
    bench::Quality parallel = bench::AverageCafcC(wb(), kK, options, 4);
    EXPECT_EQ(parallel.entropy, serial.entropy) << "threads=" << threads;
    EXPECT_EQ(parallel.f_measure, serial.f_measure) << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, SublinearKernelsMatchExactAtPaperScale) {
  // Same seeds, three thread counts: the pruned kernel and a full-sized
  // mini-batch must reproduce the exact kernel's assignment, and a genuine
  // (quarter-sized) mini-batch must not depend on the thread count.
  Rng seed_rng(1000);
  const std::vector<std::vector<size_t>> seeds =
      cluster::RandomSingletonSeeds(wb().pages.size(), kK, &seed_rng);
  std::vector<int> minibatch_reference;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CafcOptions options;
    options.threads = threads;
    options.kmeans.kernel = cluster::AssignmentKernel::kExact;
    const cluster::Clustering exact =
        CafcCWithSeeds(wb().pages, seeds, options);
    options.kmeans.kernel = cluster::AssignmentKernel::kPruned;
    EXPECT_EQ(CafcCWithSeeds(wb().pages, seeds, options).assignment,
              exact.assignment);
    options.kmeans.kernel = cluster::AssignmentKernel::kAuto;
    options.kmeans.minibatch_size = wb().pages.size();
    EXPECT_EQ(CafcCWithSeeds(wb().pages, seeds, options).assignment,
              exact.assignment);
    options.kmeans.minibatch_size = wb().pages.size() / 4;
    const cluster::Clustering minibatch =
        CafcCWithSeeds(wb().pages, seeds, options);
    if (minibatch_reference.empty()) {
      minibatch_reference = minibatch.assignment;
    } else {
      EXPECT_EQ(minibatch.assignment, minibatch_reference);
    }
  }
}

}  // namespace
}  // namespace cafc
