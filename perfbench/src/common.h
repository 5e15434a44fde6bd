//===-- perfbench/src/common.h - Shared benchmark types ----------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: run options, the metric
/// sink, reference results, the in-memory span log of the traced run,
/// counter snapshots taken as before/after deltas, and the exact sample
/// statistics (medians, nearest-rank percentiles, geomeans).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "obs/metrics.h"
#include "runtime/value.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Smallest possible run of every phase (the self-test's mode).
  bool Tiny = false;
  /// Expected results, relative to the repository root.
  std::string ReferencePath = "perfbench/reference.tsv";
  std::string SpansPath; ///< traced run: where the span log is written
};

/// The Vm configuration every measured run uses: a default Vm::Config with
/// only the strategy and the invalidation knobs set.
rjit::Vm::Config measuredConfig(rjit::TierStrategy S, uint64_t Rate,
                                uint64_t InvalidationSeed);

const char *strategyKey(rjit::TierStrategy S); ///< "normal" / "deoptless"

/// Metrics and operation counts of one run, in emission order.
struct Outcome {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Expected results, keyed by operation ("program/step"), captured once
/// from the BaselineOnly tier (see --capture-reference).
class Reference {
public:
  bool load(const std::string &Path, std::string &Error);
  /// True when \p Shown is the recorded result of \p Key. Prints the first
  /// few mismatches to stderr.
  bool check(const std::string &Key, const std::string &Shown) const;

private:
  std::map<std::string, std::string> Expected;
};

/// Runs one timed operation and checks its result; counts it in \p O.
/// Returns the elapsed nanoseconds of the eval alone.
uint64_t timedOp(rjit::Vm &V, const std::string &Source,
                 const std::string &Key, const Reference &Ref, Outcome &O);

/// In-memory spans recorded by the benchmark's own code around calls into
/// a layer's public functions. One log per recording thread; written out
/// as Chrome trace-event JSON when the run ends.
class SpanLog {
public:
  explicit SpanLog(uint32_t Tid = 0) : Tid(Tid) {}

  /// Opens a span; returns its id (unique across logs of one run).
  uint64_t begin(const char *Name, uint64_t Parent, uint64_t OpId = 0);
  void end(uint64_t Id);

  struct Span {
    const char *Name;
    uint64_t Start, End;
    uint64_t Parent, OpId;
  };
  const std::vector<Span> &spans() const { return Spans; }
  uint32_t tid() const { return Tid; }

private:
  uint32_t Tid;
  std::vector<Span> Spans;
};

/// Scoped span; a null log records nothing.
class SpanScope {
public:
  SpanScope(SpanLog *L, const char *Name, uint64_t Parent, uint64_t Op = 0)
      : L(L), Id(L ? L->begin(Name, Parent, Op) : 0) {}
  ~SpanScope() {
    if (L)
      L->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint64_t id() const { return Id; }

private:
  SpanLog *L;
  uint64_t Id;
};

/// Writes every span of \p Logs to \p Path (Chrome trace JSON); returns
/// the number written.
size_t writeSpans(const std::string &Path, const std::vector<SpanLog> &Logs);

/// The layer counters and duration samples one region contributed.
struct LayerCounts {
  uint64_t Compilations = 0, OsrInEntries = 0, Deopts = 0;
  uint64_t DeoptlessAttempts = 0, DeoptlessHits = 0, DeoptlessCompiles = 0,
           DeoptlessRejected = 0;
  uint64_t AssumeChecks = 0, GcCollections = 0, GcFreedBytes = 0;
  uint64_t PeakBytes = 0, AllocBytes = 0, Allocs = 0;
  /// Histogram samples (ns) expanded from the region's log buckets: each
  /// sample is its bucket's lower bound, so percentiles carry the
  /// histogram's 12.5% resolution.
  std::vector<double> CompileNs, QueueWaitNs, DeoptPauseNs, GcPauseNs;

  /// Sums \p O into this (peak: max).
  void add(const LayerCounts &O);
};

/// Process-global counters read as a before/after delta around a region.
/// The Vm constructor zeroes stats() and metrics(), so a region must never
/// contain a Vm construction; the histograms are drained (lossless) at both
/// ends instead of relying on that reset.
class CounterRegion {
public:
  /// Starts the region: drains the histograms, snapshots the counters and
  /// restarts the heap high-water mark.
  CounterRegion();
  /// Ends the region and returns what happened inside it.
  LayerCounts finish();

private:
  rjit::VmStats Before;
  uint64_t BytesBefore = 0, AllocsBefore = 0;
};

/// The machine-speed calibration. The machine this benchmark runs on
/// drifts by 20% and more within seconds (shared hardware), which would
/// swamp every bound. So every reported time is scaled by
/// ReferenceCalibrationMs / calibrationMs(), with the calibration measured
/// next to the timed work: a fixed interpreter-shaped kernel (switch
/// dispatch, integer ALU, a 256 KiB table) that shares no code with the VM,
/// so no change to the VM can move it. The scaled value is the time the
/// work would take on a machine where the kernel runs in the reference
/// time; the raw times are printed alongside.
constexpr double ReferenceCalibrationMs = 1.0;
/// Fastest of several kernel runs, in milliseconds.
double calibrationMs();

double median(std::vector<double> Xs);
/// Exact nearest-rank percentile (0 < Q <= 1) of raw samples.
double percentile(std::vector<double> Xs, double Q);
double geomean(const std::vector<double> &Xs);

/// The machine and Vm configuration lines printed before the result.
void printPinnedConfig(const Options &O);

} // namespace pb

#endif // PERFBENCH_COMMON_H
