#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/macros.h"

namespace dpkron {
namespace {

// Set while a worker executes chunks; nested parallel sections run
// serially on the calling worker instead of deadlocking on the pool.
thread_local bool t_inside_parallel_region = false;

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// One parallel section. Heap-allocated and shared with the workers so a
// straggler that wakes after Run() returned only sees an exhausted chunk
// cursor (next_chunk never resets within a job) and never dereferences
// `fn` — whose pointee lives only for the duration of Run().
struct Job {
  const std::function<void(size_t chunk, size_t worker)>* fn = nullptr;
  size_t num_chunks = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> pending{0};
};

// Persistent pool: `threads_ - 1` spawned workers plus the calling
// thread (worker 0). Jobs are broadcast through a generation counter;
// chunks are claimed from an atomic cursor, so imbalance between chunks
// self-schedules.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
    return *pool;
  }

  int thread_count() const { return threads_; }

  void SetThreadCount(int threads) {
    if (threads < 1) threads = 1;
    if (threads == threads_) return;
    Shutdown();
    threads_ = threads;
    Spawn();
  }

  void Run(size_t num_chunks,
           const std::function<void(size_t chunk, size_t worker)>& fn) {
    if (num_chunks == 0) return;
    if (threads_ == 1 || num_chunks == 1 || t_inside_parallel_region) {
      // Save/restore rather than set/clear: a nested call arriving with
      // the flag already up must leave it up for the enclosing section.
      const bool was_inside = t_inside_parallel_region;
      t_inside_parallel_region = true;
      for (size_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk, 0);
      t_inside_parallel_region = was_inside;
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->num_chunks = num_chunks;
    job->pending.store(num_chunks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_job_ = job;
      ++generation_;
    }
    start_cv_.notify_all();
    WorkLoop(*job, /*worker=*/0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&job] {
      return job->pending.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  explicit ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
    Spawn();
  }

  // Each worker starts from the generation current at spawn time, read
  // under the lock: one that first runs after the next Run() has bumped
  // the generation then still sees that job, rather than skipping it.
  void Spawn() {
    uint64_t generation;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = false;
      generation = generation_;
    }
    workers_.reserve(threads_ - 1);
    for (int worker = 1; worker < threads_; ++worker) {
      workers_.emplace_back(
          [this, worker, generation] { WorkerMain(worker, generation); });
    }
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }

  void WorkerMain(int worker, uint64_t seen_generation) {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [this, seen_generation] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        job = current_job_;
      }
      if (job) WorkLoop(*job, static_cast<size_t>(worker));
    }
  }

  void WorkLoop(Job& job, size_t worker) {
    t_inside_parallel_region = true;
    for (;;) {
      const size_t chunk =
          job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.num_chunks) break;
      (*job.fn)(chunk, worker);
      if (job.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk finished: wake the caller (the lock guarantees the
        // notify cannot race past the caller's wait check).
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
    t_inside_parallel_region = false;
  }

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  uint64_t generation_ = 0;
  std::shared_ptr<Job> current_job_;
};

}  // namespace

int ParallelThreadCount() { return ThreadPool::Instance().thread_count(); }

void SetParallelThreadCount(int threads) {
  ThreadPool::Instance().SetThreadCount(threads);
}

size_t ParallelChunkCount(size_t n, size_t grain) {
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

void ParallelForChunks(size_t n, size_t grain,
                       const std::function<void(const ParallelChunk&)>& fn) {
  if (n == 0) return;
  if (grain < 1) grain = 1;
  const size_t num_chunks = ParallelChunkCount(n, grain);
  const std::function<void(size_t, size_t)> chunk_fn =
      [&fn, n, grain](size_t chunk, size_t worker) {
        ParallelChunk range;
        range.begin = chunk * grain;
        range.end = std::min(n, range.begin + grain);
        range.index = chunk;
        range.worker = worker;
        fn(range);
      };
  ThreadPool::Instance().Run(num_chunks, chunk_fn);
}

double ParallelSum(size_t n, size_t grain,
                   const std::function<double(size_t, size_t)>& partial_fn) {
  if (n == 0) return 0.0;
  std::vector<double> partials(ParallelChunkCount(n, grain), 0.0);
  ParallelForChunks(n, grain, [&](const ParallelChunk& chunk) {
    partials[chunk.index] = partial_fn(chunk.begin, chunk.end);
  });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return total;
}

std::vector<Rng> SplitRngStreams(Rng& parent, size_t count) {
  std::vector<Rng> streams;
  streams.reserve(count);
  for (size_t i = 0; i < count; ++i) streams.push_back(parent.Split());
  return streams;
}

void ParallelForChunksWithRng(
    size_t n, size_t grain, Rng& rng,
    const std::function<void(const ParallelChunk&, Rng&)>& fn) {
  if (n == 0) return;
  std::vector<Rng> streams =
      SplitRngStreams(rng, ParallelChunkCount(n, grain));
  ParallelForChunks(n, grain, [&](const ParallelChunk& chunk) {
    fn(chunk, streams[chunk.index]);
  });
}

}  // namespace dpkron
