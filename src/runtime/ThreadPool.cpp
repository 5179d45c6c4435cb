//===--- ThreadPool.cpp - Work-stealing task pool ---------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadPool.h"

using namespace mix::rt;

namespace {

/// Which pool (if any) the current thread works for, and its index.
/// Thread-local so nested submission and future-helping can find the
/// caller's own deque without a registry lookup.
thread_local const ThreadPool *CurrentPool = nullptr;
thread_local int CurrentWorkerIndex = -1;

} // namespace

ThreadPool::ThreadPool(unsigned WorkerCount, obs::TraceSink *TraceSink,
                       const char *Name)
    : Trace(TraceSink), PoolName(Name) {
  Queues.reserve(WorkerCount);
  for (unsigned I = 0; I != WorkerCount; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I != WorkerCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    Stopping = true;
  }
  SleepCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

int ThreadPool::currentWorker() const {
  return CurrentPool == this ? CurrentWorkerIndex : -1;
}

void ThreadPool::enqueue(Task T) {
  int Self = currentWorker();
  unsigned Target;
  if (Self >= 0) {
    Target = (unsigned)Self; // nested submission: stay local, run LIFO
  } else {
    std::lock_guard<std::mutex> Lock(SleepM);
    Target = NextQueue;
    NextQueue = (NextQueue + 1) % (unsigned)Queues.size();
  }
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->M);
    Queues[Target]->Tasks.push_back(std::move(T));
  }
  // Serialize with the sleepers' check-then-wait: a worker holds SleepM
  // from its empty re-scan until wait(), so acquiring it here means the
  // notify below cannot fall between a scan that missed this task and
  // the corresponding wait.
  {
    std::lock_guard<std::mutex> Lock(SleepM);
  }
  SleepCv.notify_one();
}

bool ThreadPool::popTask(Task &Out) {
  int Self = currentWorker();
  // Own deque first, newest task first (locality for nested submits).
  if (Self >= 0) {
    WorkerQueue &Q = *Queues[Self];
    std::lock_guard<std::mutex> Lock(Q.M);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.back());
      Q.Tasks.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the others, starting after our own slot so
  // thieves spread out instead of all hammering queue 0.
  size_t N = Queues.size();
  size_t Start = Self >= 0 ? (size_t)(Self + 1) : 0;
  for (size_t K = 0; K != N; ++K) {
    WorkerQueue &Q = *Queues[(Start + K) % N];
    std::lock_guard<std::mutex> Lock(Q.M);
    if (!Q.Tasks.empty()) {
      Out = std::move(Q.Tasks.front());
      Q.Tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(Task &T) {
  obs::TraceSpan Span(Trace, "pool.task", "pool");
  T();
}

bool ThreadPool::runOneTask() {
  Task T;
  if (!popTask(T))
    return false;
  runTask(T);
  return true;
}

void ThreadPool::workerLoop(unsigned Index) {
  CurrentPool = this;
  CurrentWorkerIndex = (int)Index;
  if (Trace)
    Trace->nameCurrentThread(std::string(PoolName) + " worker " +
                             std::to_string(Index));
  for (;;) {
    Task T;
    if (popTask(T)) {
      runTask(T);
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepM);
    if (Stopping)
      break;
    // Re-check under the lock: a submit may have raced our empty scan.
    bool AnyWork = false;
    for (auto &Q : Queues) {
      std::lock_guard<std::mutex> QLock(Q->M);
      if (!Q->Tasks.empty()) {
        AnyWork = true;
        break;
      }
    }
    if (AnyWork)
      continue;
    SleepCv.wait(Lock);
  }
  CurrentPool = nullptr;
  CurrentWorkerIndex = -1;
}
