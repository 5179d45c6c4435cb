//===--- ThreadPoolTest.cpp - Tests for the work-stealing pool ------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The pool runs mixyd's analyze requests, so these tests pin its
// contract: submit/join round trips, exception propagation through
// futures, nested submission without deadlock (futures help run tasks
// while waiting), and the degenerate 0- and 1-worker configurations.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

using namespace mix::rt;

TEST(ThreadPoolTest, SubmitAndJoinReturnsValues) {
  ThreadPool Pool(4);
  std::vector<TaskFuture<int>> Futures;
  for (int I = 0; I != 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Futures[(size_t)I].get(), I * I);
}

TEST(ThreadPoolTest, VoidTasksComplete) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  std::vector<TaskFuture<void>> Futures;
  for (int I = 0; I != 64; ++I)
    Futures.push_back(Pool.submit([&Count] { ++Count; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughGet) {
  ThreadPool Pool(2);
  TaskFuture<int> Bad = Pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, NestedSubmissionDoesNotDeadlock) {
  // A task that awaits its own subtasks: with blocking waits this
  // deadlocks a 1-worker pool; the future's help-while-waiting loop must
  // drain the subtasks instead.
  ThreadPool Pool(1);
  TaskFuture<int> Outer = Pool.submit([&Pool] {
    TaskFuture<int> A = Pool.submit([] { return 20; });
    TaskFuture<int> B = Pool.submit([] { return 22; });
    return A.get() + B.get();
  });
  EXPECT_EQ(Outer.get(), 42);
}

TEST(ThreadPoolTest, DeeplyNestedSubmission) {
  ThreadPool Pool(2);
  // Recursive fork-join: sum(1..N) via binary splitting.
  std::function<int(int, int)> Sum = [&](int Lo, int Hi) -> int {
    if (Hi - Lo <= 4) {
      int S = 0;
      for (int I = Lo; I != Hi; ++I)
        S += I;
      return S;
    }
    int Mid = Lo + (Hi - Lo) / 2;
    TaskFuture<int> Left = Pool.submit([&, Lo, Mid] { return Sum(Lo, Mid); });
    int Right = Sum(Mid, Hi);
    return Left.get() + Right;
  };
  EXPECT_EQ(Sum(1, 101), 5050);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 0u);
  // submit() must execute on the calling thread, immediately.
  std::thread::id Caller = std::this_thread::get_id();
  TaskFuture<std::thread::id> F =
      Pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_TRUE(F.ready());
  EXPECT_EQ(F.get(), Caller);
  EXPECT_THROW(
      Pool.submit([]() -> int { throw std::logic_error("inline"); }).get(),
      std::logic_error);
}

TEST(ThreadPoolTest, OneWorkerIsSerial) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  // All tasks run on the single worker thread, never concurrently: an
  // unsynchronized counter stays exact.
  int Plain = 0;
  std::vector<TaskFuture<void>> Futures;
  for (int I = 0; I != 200; ++I)
    Futures.push_back(Pool.submit([&Plain] { ++Plain; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Plain, 200);
}

TEST(ThreadPoolTest, ManyTasksAcrossManyWorkersSum) {
  ThreadPool Pool(8);
  std::atomic<long long> Total{0};
  std::vector<TaskFuture<void>> Futures;
  for (long long I = 1; I <= 1000; ++I)
    Futures.push_back(Pool.submit([&Total, I] { Total += I; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Total.load(), 500500);
}
