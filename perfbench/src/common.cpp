//===-- perfbench/src/common.cpp - Shared benchmark types -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "support/rng.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace pb;
using namespace rjit;

Vm::Config pb::measuredConfig(TierStrategy S, uint64_t Rate,
                              uint64_t InvalidationSeed) {
  Vm::Config C;
  C.Strategy = S;
  C.InvalidationRate = Rate;
  C.InvalidationSeed = InvalidationSeed;
  return C;
}

const char *pb::strategyKey(TierStrategy S) {
  return S == TierStrategy::Deoptless ? "deoptless" : "normal";
}

//===----------------------------------------------------------------------===//
// Reference results
//===----------------------------------------------------------------------===//

bool Reference::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read reference results " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos) {
      Error = "malformed reference line: " + Line;
      return false;
    }
    Expected[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return true;
}

bool Reference::check(const std::string &Key, const std::string &Shown) const {
  auto It = Expected.find(Key);
  if (It != Expected.end() && It->second == Shown)
    return true;
  static std::atomic<int> Reported{0};
  if (Reported++ < 5)
    fprintf(stderr, "perfbench: wrong result for %s: got '%s', expected '%s'\n",
            Key.c_str(), Shown.c_str(),
            It == Expected.end() ? "<no reference>" : It->second.c_str());
  return false;
}

uint64_t pb::timedOp(Vm &V, const std::string &Source, const std::string &Key,
                     const Reference &Ref, Outcome &O) {
  ++O.Attempted;
  uint64_t T0 = nowNs();
  try {
    Value R = V.eval(Source);
    uint64_t Ns = nowNs() - T0;
    if (!Ref.check(Key, R.show()))
      ++O.Failed;
    return Ns;
  } catch (const std::exception &E) {
    uint64_t Ns = nowNs() - T0;
    static std::atomic<int> Reported{0};
    if (Reported++ < 5)
      fprintf(stderr, "perfbench: %s raised: %s\n", Key.c_str(), E.what());
    ++O.Failed;
    return Ns;
  }
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

uint64_t SpanLog::begin(const char *Name, uint64_t Parent, uint64_t OpId) {
  Spans.push_back({Name, nowNs(), 0, Parent, OpId});
  // Ids are 1-based so that 0 can mean "no parent"; the thread id in the
  // high bits keeps them unique across the logs of one run.
  return (static_cast<uint64_t>(Tid) << 40) | Spans.size();
}

void SpanLog::end(uint64_t Id) {
  Spans[(Id & ((uint64_t(1) << 40) - 1)) - 1].End = nowNs();
}

size_t pb::writeSpans(const std::string &Path,
                      const std::vector<SpanLog> &Logs) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return 0;
  uint64_t Base = UINT64_MAX;
  for (const SpanLog &L : Logs)
    for (const SpanLog::Span &S : L.spans())
      Base = std::min(Base, S.Start);
  size_t N = 0;
  fprintf(F, "{\"traceEvents\":[");
  for (const SpanLog &L : Logs) {
    for (size_t K = 0; K < L.spans().size(); ++K) {
      const SpanLog::Span &S = L.spans()[K];
      uint64_t Id = (static_cast<uint64_t>(L.tid()) << 40) | (K + 1);
      fprintf(F,
              "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
              "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
              "\"parent\":%llu,\"op\":%llu}}",
              N ? "," : "", S.Name, L.tid(), (S.Start - Base) * 1e-3,
              (S.End - S.Start) * 1e-3, (unsigned long long)Id,
              (unsigned long long)S.Parent, (unsigned long long)S.OpId);
      ++N;
    }
  }
  fprintf(F, "\n]}\n");
  fclose(F);
  return N;
}

//===----------------------------------------------------------------------===//
// Counter regions
//===----------------------------------------------------------------------===//

void LayerCounts::add(const LayerCounts &O) {
  Compilations += O.Compilations;
  OsrInEntries += O.OsrInEntries;
  Deopts += O.Deopts;
  DeoptlessAttempts += O.DeoptlessAttempts;
  DeoptlessHits += O.DeoptlessHits;
  DeoptlessCompiles += O.DeoptlessCompiles;
  DeoptlessRejected += O.DeoptlessRejected;
  AssumeChecks += O.AssumeChecks;
  GcCollections += O.GcCollections;
  GcFreedBytes += O.GcFreedBytes;
  PeakBytes = std::max(PeakBytes, O.PeakBytes);
  AllocBytes += O.AllocBytes;
  Allocs += O.Allocs;
  auto Append = [](std::vector<double> &To, const std::vector<double> &From) {
    To.insert(To.end(), From.begin(), From.end());
  };
  Append(CompileNs, O.CompileNs);
  Append(QueueWaitNs, O.QueueWaitNs);
  Append(DeoptPauseNs, O.DeoptPauseNs);
  Append(GcPauseNs, O.GcPauseNs);
}

CounterRegion::CounterRegion() {
  (void)obs::MetricsRegistry::snapshotAndReset();
  resetHeapPeak();
  Before = stats();
  BytesBefore = heapStats().TotalAllocated;
  AllocsBefore = heapStats().Allocations;
}

namespace {

/// Re-expands a log-bucketed histogram into one sample per recorded value
/// (each at its bucket's lower bound), so that samples of several regions
/// can be pooled for exact nearest-rank percentiles.
std::vector<double> expand(const obs::LatencyHistogram &H) {
  std::vector<double> Out;
  uint64_t N = std::min<uint64_t>(H.count(), 200000);
  Out.reserve(N);
  for (uint64_t K = 1; K <= N; ++K)
    Out.push_back(static_cast<double>(
        H.quantile((static_cast<double>(K) + 0.5) / static_cast<double>(N))));
  return Out;
}

} // namespace

LayerCounts CounterRegion::finish() {
  VmStats D = stats() - Before;
  obs::VmMetrics H = obs::MetricsRegistry::snapshotAndReset();
  LayerCounts C;
  C.Compilations = D.Compilations;
  C.OsrInEntries = D.OsrInEntries;
  C.Deopts = D.Deopts;
  C.DeoptlessAttempts = D.DeoptlessAttempts;
  C.DeoptlessHits = D.DeoptlessHits;
  C.DeoptlessCompiles = D.DeoptlessCompiles;
  C.DeoptlessRejected = D.DeoptlessRejected;
  C.AssumeChecks = D.AssumeChecks;
  C.GcCollections = D.GcCollections;
  C.GcFreedBytes = D.GcFreedBytes;
  C.PeakBytes = heapStats().PeakBytes;
  C.AllocBytes = heapStats().TotalAllocated - BytesBefore;
  C.Allocs = heapStats().Allocations - AllocsBefore;
  C.CompileNs = expand(H.CompileLatency);
  C.QueueWaitNs = expand(H.QueueWait);
  C.DeoptPauseNs = expand(H.DeoptPause);
  C.GcPauseNs = expand(H.GcPause);
  return C;
}

//===----------------------------------------------------------------------===//
// Machine-speed calibration
//===----------------------------------------------------------------------===//

namespace {

struct CalibrationKernel {
  std::vector<uint32_t> Table = std::vector<uint32_t>(1 << 16);
  std::vector<uint8_t> Code;
  CalibrationKernel() {
    Rng G(42);
    for (int K = 0; K < 64; ++K)
      Code.push_back(static_cast<uint8_t>(G.below(6)));
  }
  /// One run: a fixed bytecode loop over the table; returns a checksum.
  uint64_t run() {
    uint64_t Acc = 1, Idx = 0;
    for (int It = 0; It < 8000; ++It)
      for (size_t K = 0; K < Code.size(); ++K)
        switch (Code[K]) {
        case 0:
          Acc += Table[Idx & 0xffff];
          break;
        case 1:
          Acc *= 0x9E3779B1u;
          break;
        case 2:
          Idx = Idx * 1664525 + 1013904223;
          break;
        case 3:
          Table[(Acc >> 7) & 0xffff] ^= static_cast<uint32_t>(Acc);
          break;
        case 4:
          Acc ^= Acc >> 13;
          break;
        default:
          Acc += K;
        }
    return Acc;
  }
};

} // namespace

double pb::calibrationMs() {
  thread_local CalibrationKernel Kernel;
  static std::atomic<uint64_t> Sink{0};
  double Best = 1e300;
  for (int K = 0; K < 5; ++K) {
    uint64_t T0 = nowNs();
    Sink += Kernel.run();
    Best = std::min(Best, static_cast<double>(nowNs() - T0) * 1e-6);
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

double pb::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

double pb::percentile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * Xs.size()));
  Rank = std::min(std::max<size_t>(Rank, 1), Xs.size());
  return Xs[Rank - 1];
}

double pb::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

//===----------------------------------------------------------------------===//
// Pinned configuration
//===----------------------------------------------------------------------===//

namespace {

std::string firstLine(const char *Path, const char *Prefix) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Prefix || Line.rfind(Prefix, 0) == 0)
      return Prefix ? Line.substr(Line.find(':') + 1) : Line;
  return "unreadable";
}

} // namespace

void pb::printPinnedConfig(const Options &O) {
  Vm::Config C = measuredConfig(TierStrategy::Normal, 0, 0);
  printf("# config: NativeTier=%d NativeV2=regalloc:%d,fusion:%d,linking:%d "
         "HeapGc=%d(threshold %llu B) OsrThreshold=%u CompileThreshold=%u "
         "MaxContinuations=%u BackgroundCompile=%d (server: on, 1 shared "
         "compiler thread)\n",
         C.NativeTier, C.NativeV2.Regalloc, C.NativeV2.Fusion,
         C.NativeV2.Linking, C.HeapGc.Enabled,
         (unsigned long long)C.HeapGc.ThresholdBytes, C.OsrThreshold,
         C.CompileThreshold, C.MaxContinuations, C.BackgroundCompile);
  std::string Cpu = firstLine("/proc/cpuinfo", "model name");
  size_t Start = Cpu.find_first_not_of(' ');
  printf("# machine: nproc=%u cpu=\"%s\" governor=%s\n",
         std::thread::hardware_concurrency(),
         Start == std::string::npos ? Cpu.c_str() : Cpu.c_str() + Start,
         firstLine("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                   nullptr)
             .c_str());
  printf("# calibration: kernel %.4f ms now, reference %.4f ms; reported "
         "times are scaled to the reference speed\n",
         calibrationMs(), ReferenceCalibrationMs);
  printf("# run: workload=%s seed=%llu seconds=%g trace=%d%s\n",
         O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds, O.Trace,
         O.Tiny ? " tiny" : "");
}
