// Error-path behaviour of the worker pool: every task of a batch runs at
// any DOP, the lowest-indexed error wins deterministically, the pool is
// quiescent again after a failed batch, and a Failpoints::Suppressor on the
// submitting thread mutes the tasks it hands to workers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace xnf {
namespace {

class ThreadPoolFault : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisableAll(); }
};

std::vector<std::function<Status()>> CountingTasks(int n,
                                                   std::atomic<int>* ran,
                                                   std::vector<int> failing) {
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < n; ++i) {
    bool fails =
        std::find(failing.begin(), failing.end(), i) != failing.end();
    tasks.push_back([i, fails, ran]() -> Status {
      ran->fetch_add(1);
      if (fails) {
        return Status::Internal("task " + std::to_string(i) + " failed");
      }
      return Status::Ok();
    });
  }
  return tasks;
}

TEST_F(ThreadPoolFault, AllTasksRunAndLowestIndexErrorWinsAtAnyDop) {
  for (int dop : {1, 4}) {
    ThreadPool pool(dop);
    std::atomic<int> ran{0};
    Status status = pool.RunAll(CountingTasks(8, &ran, {5, 2}));
    // Same side effects and same reported error serial and parallel.
    EXPECT_EQ(ran.load(), 8) << "dop=" << dop;
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "task 2 failed") << "dop=" << dop;
    EXPECT_TRUE(pool.quiescent());
  }
}

TEST_F(ThreadPoolFault, DispatchFailpointSuppressesTaskBody) {
  // `always` fires on every dispatch: no task body runs, serial or
  // parallel, and the injected error is what RunAll reports.
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "always").ok());
  for (int dop : {1, 4}) {
    ThreadPool pool(dop);
    std::atomic<int> ran{0};
    Status status = pool.RunAll(CountingTasks(6, &ran, {}));
    EXPECT_EQ(ran.load(), 0) << "dop=" << dop;
    EXPECT_EQ(status.code(), StatusCode::kFaultInjected) << "dop=" << dop;
    EXPECT_TRUE(pool.quiescent());
  }
}

TEST_F(ThreadPoolFault, PartialDispatchFailureStillRunsOtherTasks) {
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "nth(3)").ok());
  ThreadPool pool(1);  // serial: deterministic hit order, task 2 is killed
  std::atomic<int> ran{0};
  Status status = pool.RunAll(CountingTasks(6, &ran, {}));
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(pool.quiescent());
}

TEST_F(ThreadPoolFault, QuiescentAfterManyFailedBatches) {
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "every(2)").ok());
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    (void)pool.RunAll(CountingTasks(7, &ran, {}));
    EXPECT_TRUE(pool.quiescent());
  }
}

// Eight tasks that each pass `site` through Failpoints::Check; task 3 also
// submits a nested batch of four such tasks to the same pool. Each outer
// body sleeps briefly so that, at DOP > 1, idle workers claim the remaining
// tasks instead of the caller draining the batch alone.
std::vector<std::function<Status()>> CheckingTasks(ThreadPool* pool,
                                                   const char* site) {
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([pool, site, i]() -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      XNF_RETURN_IF_ERROR(Failpoints::Check(site));
      if (i != 3) return Status::Ok();
      std::vector<std::function<Status()>> nested;
      for (int j = 0; j < 4; ++j) {
        nested.push_back([site] { return Failpoints::Check(site); });
      }
      return pool->RunAll(std::move(nested));
    });
  }
  return tasks;
}

TEST_F(ThreadPoolFault, SuppressorCoversTasksSubmittedToWorkers) {
  const char* kSite = "xnf.node.query";
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    ASSERT_TRUE(Failpoints::Enable("threadpool.task", "always").ok());
    ASSERT_TRUE(Failpoints::Enable(kSite, "always").ok());
    ThreadPool pool(dop);
    {
      // Muted on the submitting thread means muted for every task it
      // submits, on whichever thread the task runs and in nested batches:
      // no fire and no counted hit, at the dispatch site or in the bodies.
      Failpoints::Suppressor suppress;
      EXPECT_TRUE(pool.RunAll(CheckingTasks(&pool, kSite)).ok());
    }
    EXPECT_EQ(Failpoints::hits("threadpool.task"), 0u);
    EXPECT_EQ(Failpoints::hits(kSite), 0u);
    EXPECT_TRUE(pool.quiescent());

    // The suppression ends with the Suppressor: the same batch fires again,
    // on every one of its eight dispatches.
    Status status = pool.RunAll(CheckingTasks(&pool, kSite));
    EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
    EXPECT_EQ(Failpoints::fires("threadpool.task"), 8u);
    EXPECT_TRUE(pool.quiescent());
    Failpoints::DisableAll();
  }
}

}  // namespace
}  // namespace xnf
