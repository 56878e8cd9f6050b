//===- pipeline/Scheduler.h - Dependency-aware job scheduler ----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A small dependency-aware job graph executed by a fixed-size thread pool
// with work stealing. This is the engine under the parallel certification
// pipeline (pipeline/Pipeline.h): per program, compile -> {derivation
// replay, static analysis + codelint, translation validation} ->
// differential certification, where the middle jobs are independent once
// the code is emitted — per-function certification is embarrassingly
// parallel, exactly as in CompCert-style pipelines.
//
// Design rules, chosen so parallel runs are *reproducible*:
//
//   - The graph is built up front and immutable during execution. Every
//     dependency must name an already-added job, so submission order is a
//     topological order.
//
//   - With Jobs == 1 the scheduler runs no threads at all: jobs execute
//     inline, in submission order, on the calling thread. This preserves
//     the pre-pipeline serial behavior bit for bit and is the reference
//     semantics parallel runs are diffed against.
//
//   - Jobs communicate only through their captured state (per-job result
//     slots owned by the graph's builder); the scheduler itself never
//     routes data. Diagnostics are therefore buffered per job and flushed
//     by the caller in deterministic order, never printed from workers.
//
//   - A job that throws is caught and recorded; its dependents are marked
//     skipped (they never run) but independent jobs keep executing — one
//     program's defect must not poison or block sibling programs.
//
// Work stealing: each worker owns a deque, pushes newly-ready jobs to its
// own back, pops from its own back (LIFO, cache-friendly), and steals from
// a victim's front (FIFO, oldest first) when empty. With the job counts at
// hand (tens of jobs, milliseconds each) a mutex per deque is faster than
// a lock-free Chase-Lev deque would be worth; contention is negligible.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_PIPELINE_SCHEDULER_H
#define RELC_PIPELINE_SCHEDULER_H

#include "support/Result.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace relc {
namespace pipeline {

using JobId = uint32_t;
constexpr JobId NoJob = ~JobId(0);

/// Outcome of one executed graph, per job.
enum class JobState : uint8_t {
  NotRun,  ///< Never executed (dependency failed or threw).
  Done,    ///< Ran to completion.
  Threw,   ///< Work threw; dependents were skipped.
};

/// Resolves a user-requested thread count to an executable one:
/// 0 means "use the hardware" (std::thread::hardware_concurrency()), with
/// a serial fallback when the hardware cannot be queried; everything is
/// clamped to [1, 64]. \p Note, when non-null, receives a human-readable
/// explanation whenever the resolved count differs from the request
/// (relc-gen prints it so `-j 0` is never a silent surprise).
unsigned resolveJobs(unsigned Requested, std::string *Note = nullptr);

class JobGraph {
public:
  /// Adds a job. Every id in \p Deps must have been returned by an earlier
  /// add() call (so submission order is topological). Returns the job's id.
  JobId add(std::string Name, std::function<void()> Work,
            std::vector<JobId> Deps = {});

  size_t size() const { return Jobs.size(); }

  /// Executes the graph on \p NumThreads workers (resolved via
  /// resolveJobs: 0 = hardware concurrency, clamped to [1, 64]).
  /// NumThreads == 1 runs every job inline in submission order. Returns
  /// failure iff any job threw or was skipped; the error names them in
  /// submission order (deterministic regardless of thread count).
  Status run(unsigned NumThreads);

  /// Post-run inspection (valid after run() returns).
  JobState state(JobId J) const { return Jobs[J].State; }
  const std::string &errorOf(JobId J) const { return Jobs[J].ErrorText; }

private:
  struct Job {
    std::string Name;
    std::function<void()> Work;
    std::vector<JobId> Deps;
    std::vector<JobId> Dependents;
    unsigned PendingDeps = 0;
    JobState State = JobState::NotRun;
    std::string ErrorText; ///< What the job threw, if it threw.
  };
  std::vector<Job> Jobs;

  void runSerial();
  void runParallel(unsigned NumThreads);
  Status summarize() const;
};

} // namespace pipeline
} // namespace relc

#endif // RELC_PIPELINE_SCHEDULER_H
