#ifndef GRADOOP_DATAFLOW_THREAD_POOL_H_
#define GRADOOP_DATAFLOW_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace gradoop::dataflow {

// Fixed-size fork-join pool used to execute dataset partitions in
// parallel on the host machine. Real parallelism is an implementation
// detail; the simulated cluster time never depends on it.
//
// RunAndWait publishes one batch descriptor (the task, its size, the next
// unclaimed index and a finished count) instead of queueing a closure per
// task. The workers and the calling thread claim indices from it in
// order; the caller runs tasks of its own batch until none is left
// unclaimed and only then waits for the ones the workers claimed. A tiny
// stage therefore finishes on the caller before a worker has woken up,
// and a large one runs on every worker plus the caller.
//
// Because the caller runs tasks, a task may run while the caller holds
// its own locks: a task takes only locks ranked below every lock any
// RunAndWait caller holds (docs/concurrency.md).
class ThreadPool {
 public:
  // Timing of one completed pool task, handed to the task hook. The task
  // index is the partition index of the batch, i.e. the simulated worker
  // that owns the partition.
  struct TaskTiming {
    const char* label = nullptr;  // stage label of the batch
    int task_index = 0;
    std::chrono::steady_clock::time_point begin;
    std::chrono::steady_clock::time_point end;
  };
  // Invoked after each task of a labelled batch finishes, on the thread
  // that ran the task — a pool worker or the RunAndWait caller. Must be
  // cheap and thread-safe.
  using TaskHook = std::function<void(const TaskTiming&)>;

  // num_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Tasks submitted but not yet finished. 0 whenever no RunAndWait is in
  // flight — the cancellation audit asserts this after an unwound query
  // to prove no partition task leaked past its batch.
  int pending_tasks() const EXCLUDES(mu_);

  // Installs (or, with nullptr, removes) the per-task tracing hook. Not
  // called concurrently with RunAndWait; each batch snapshots the hook
  // once at submission.
  void set_task_hook(TaskHook hook) EXCLUDES(mu_);

  // Runs tasks(0..n-1) and blocks until all complete. Each index runs
  // exactly once, on a pool thread or on the caller; n == 1 runs inline.
  // Several threads may submit concurrently, each waiting only for its
  // own batch. Tasks must not themselves call RunAndWait on the same
  // pool. When `label` is non-null and a task hook is installed, every
  // task is timed and reported to the hook (the telemetry path); a null
  // label keeps the task untraced.
  void RunAndWait(int n, const std::function<void(int)>& task,
                  const char* label = nullptr) EXCLUDES(mu_);

 private:
  // One RunAndWait call in flight. Lives on the caller's stack; the
  // caller returns only once `finished == n`, and nothing touches the
  // batch after counting its last task finished.
  struct Batch {
    const std::function<void(int)>* task = nullptr;
    const TaskHook* hook = nullptr;  // the submission-time snapshot
    const char* label = nullptr;
    int n = 0;
    int next = 0;      // next unclaimed index (under mu_)
    int finished = 0;  // tasks completed (under mu_)
  };

  static void RunTask(const Batch& batch, int index);
  // The next unclaimed index of `batch`, or -1 when all are claimed. A
  // batch is unpublished as soon as its last index is claimed, so every
  // batch in `batches_` has work left.
  int ClaimLocked(Batch* batch) REQUIRES(mu_);
  // Counts one finished task of `batch` and wakes the submitters after
  // its last one.
  void FinishLocked(Batch* batch) REQUIRES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  mutable common::Mutex mu_{common::LockRank::kDataflow,
                            "dataflow.thread_pool"};
  // condition_variable_any waits directly on the annotated Mutex; the
  // plain std::condition_variable only accepts std::unique_lock.
  std::condition_variable_any work_ready_;
  std::condition_variable_any batch_done_;
  // Published batches with unclaimed indices, oldest first.
  std::vector<Batch*> batches_ GUARDED_BY(mu_);
  int pending_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  TaskHook task_hook_ GUARDED_BY(mu_);
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_THREAD_POOL_H_
