//===--- ThreadPool.h - Work-stealing task pool -----------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool: mixyd's request workers. Each
/// analysis runs on one thread; the daemon parallelizes across requests.
///
/// Design:
///  - one deque per worker; a task submitted from a worker goes to that
///    worker's own deque (LIFO for locality), tasks submitted from
///    outside go round-robin; idle workers steal FIFO from the others;
///  - futures propagate exceptions and, when awaited from a worker
///    thread, *help* by draining pending tasks instead of blocking, so
///    nested submission (a task awaiting its own subtasks) cannot
///    deadlock the pool;
///  - a pool with 0 workers degenerates to inline execution on the
///    calling thread — the serial path, byte-for-byte identical to not
///    having a pool at all.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_RUNTIME_THREADPOOL_H
#define MIX_RUNTIME_THREADPOOL_H

#include "observe/Trace.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mix::rt {

class ThreadPool;

namespace detail {

/// Shared state between a TaskFuture and the task that fulfills it.
template <typename T> struct FutureState {
  std::mutex M;
  std::condition_variable Cv;
  bool Ready = false;
  std::exception_ptr Error;
  // Default-constructed slot; assigned exactly once before Ready.
  alignas(T) unsigned char Storage[sizeof(T)];
  bool HasValue = false;

  ~FutureState() {
    if (HasValue)
      reinterpret_cast<T *>(Storage)->~T();
  }

  void setValue(T Value) {
    std::lock_guard<std::mutex> Lock(M);
    ::new (Storage) T(std::move(Value));
    HasValue = true;
    Ready = true;
    Cv.notify_all();
  }
  void setError(std::exception_ptr E) {
    std::lock_guard<std::mutex> Lock(M);
    Error = std::move(E);
    Ready = true;
    Cv.notify_all();
  }
};

template <> struct FutureState<void> {
  std::mutex M;
  std::condition_variable Cv;
  bool Ready = false;
  std::exception_ptr Error;

  void setValue() {
    std::lock_guard<std::mutex> Lock(M);
    Ready = true;
    Cv.notify_all();
  }
  void setError(std::exception_ptr E) {
    std::lock_guard<std::mutex> Lock(M);
    Error = std::move(E);
    Ready = true;
    Cv.notify_all();
  }
};

} // namespace detail

/// Handle to the eventual result of a submitted task. get() blocks (or
/// helps run queued tasks when called on a pool worker) and rethrows any
/// exception the task threw.
template <typename T> class TaskFuture {
public:
  TaskFuture() = default;

  /// True when a result or exception is available.
  bool ready() const {
    if (!State)
      return true;
    std::lock_guard<std::mutex> Lock(State->M);
    return State->Ready;
  }

  /// Blocks until the task completes; rethrows its exception. On a pool
  /// worker thread, runs queued tasks while waiting.
  T get();

  bool valid() const { return State != nullptr; }

private:
  friend class ThreadPool;
  TaskFuture(std::shared_ptr<detail::FutureState<T>> State, ThreadPool *Pool)
      : State(std::move(State)), Pool(Pool) {}

  std::shared_ptr<detail::FutureState<T>> State;
  ThreadPool *Pool = nullptr;
};

/// The pool. Construction spawns the workers; destruction joins them
/// after draining nothing (outstanding futures must be awaited first by
/// the owner — the analyses join on every future they submit).
class ThreadPool {
public:
  /// \p Workers threads are spawned. 0 means inline execution: submit()
  /// runs the task immediately on the calling thread.
  ///
  /// With a trace sink attached, each worker names its timeline lane
  /// ("<name> worker N") and every executed task is recorded as a
  /// "pool.task" span on the worker that ran it; a null sink costs one
  /// branch per task.
  explicit ThreadPool(unsigned Workers, obs::TraceSink *Trace = nullptr,
                      const char *Name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workerCount() const { return (unsigned)Workers.size(); }

  /// A sensible default worker count for "use all the hardware".
  static unsigned hardwareWorkers() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

  /// Submits \p Fn; returns a future for its result. Exceptions thrown by
  /// \p Fn surface from TaskFuture::get().
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  TaskFuture<R> submit(Fn Fn_) {
    auto State = std::make_shared<detail::FutureState<R>>();
    if (Workers.empty()) {
      runInline<R>(*State, std::move(Fn_));
      return TaskFuture<R>(std::move(State), this);
    }
    enqueue([State, Body = std::move(Fn_)]() mutable {
      runInline<R>(*State, std::move(Body));
    });
    return TaskFuture<R>(std::move(State), this);
  }

private:
  /// Index of the calling pool worker (0-based), or -1 when the caller is
  /// not one of this pool's workers.
  int currentWorker() const;

  /// Runs one queued task if any is available; returns false when the
  /// queues were all empty. Used by futures to help while waiting.
  bool runOneTask();

  template <typename R, typename Fn>
  static void runInline(detail::FutureState<R> &State, Fn Fn_) {
    try {
      if constexpr (std::is_void_v<R>) {
        Fn_();
        State.setValue();
      } else {
        State.setValue(Fn_());
      }
    } catch (...) {
      State.setError(std::current_exception());
    }
  }

  using Task = std::function<void()>;

  /// One worker's deque. The owner pushes/pops at the back (LIFO);
  /// thieves take from the front (FIFO) — the classic Chase-Lev shape,
  /// with a mutex instead of a lock-free deque (queue operations are
  /// vastly cheaper than the solver-bound tasks they carry).
  struct WorkerQueue {
    std::mutex M;
    std::deque<Task> Tasks;
  };

  void enqueue(Task T);
  bool popTask(Task &Out);
  void workerLoop(unsigned Index);
  void runTask(Task &T);

  obs::TraceSink *Trace = nullptr;
  const char *PoolName = "pool";
  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex SleepM;
  std::condition_variable SleepCv;
  bool Stopping = false;
  unsigned NextQueue = 0; ///< round-robin target for external submits

  template <typename T> friend class TaskFuture;
};

template <typename T> T TaskFuture<T>::get() {
  if (!State) {
    if constexpr (std::is_void_v<T>)
      return;
    else
      return T();
  }
  // Help run tasks while the result is pending (only meaningful on a
  // worker thread, but harmless — and deadlock-free — anywhere).
  if (Pool && Pool->currentWorker() >= 0) {
    for (;;) {
      {
        std::unique_lock<std::mutex> Lock(State->M);
        if (State->Ready)
          break;
      }
      if (!Pool->runOneTask())
        std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> Lock(State->M);
  State->Cv.wait(Lock, [&] { return State->Ready; });
  if (State->Error)
    std::rethrow_exception(State->Error);
  if constexpr (!std::is_void_v<T>)
    return std::move(*reinterpret_cast<T *>(State->Storage));
}

} // namespace mix::rt

#endif // MIX_RUNTIME_THREADPOOL_H
