//===-- support/stats.h - VM event counters ---------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global event counters mirroring the instrumentation the paper relies on:
/// deoptimization events, deoptless dispatches and compiles, OSR-ins,
/// optimizing compilations, and heap high-water marks. The benchmark
/// harnesses read and reset these between phases.
///
/// All counters are relaxed atomics (support/relaxed.h): the moment a
/// compiler thread or a second executor exists, the bench harness reading
/// a plain uint64_t while another thread increments it is a data race.
/// The counters carry no synchronization duty, so relaxed ordering is all
/// they need.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_SUPPORT_STATS_H
#define RJIT_SUPPORT_STATS_H

#include "support/relaxed.h"

#include <cstdint>

namespace rjit {

/// The counter and gauge schema, one row per metric:
///
///   X(Member, "snake_case_name", Kind, "help")
///
/// Kind is Counter (a monotone event count, RelaxedCounter) or Gauge (a
/// level with a high-water mark, RelaxedGauge). The rows generate the
/// VmStats members, its difference and sum, and the MetricsRegistry visit
/// tables (obs/metrics.cpp); the snake_case name is the stable report and
/// BENCH JSON key. Adding a metric is adding a row here.
#define RJIT_VM_STATS(X)                                                     \
  X(Compilations, "compilations", Counter,                                   \
    "whole-function optimizing compiles")                                    \
  X(OsrInCompilations, "osr_in_compilations", Counter,                       \
    "OSR-in continuation compiles")                                          \
  X(OsrInEntries, "osr_in_entries", Counter,                                 \
    "transfers interpreter -> native")                                       \
  X(Deopts, "deopts", Counter, "true deoptimizations (OSR-out)")             \
  X(DeoptlessAttempts, "deoptless_attempts", Counter,                        \
    "deopt events offered to deoptless")                                     \
  X(DeoptlessHits, "deoptless_hits", Counter,                                \
    "dispatched to an existing continuation")                                \
  X(DeoptlessCompiles, "deoptless_compiles", Counter,                        \
    "newly compiled continuations")                                          \
  X(DeoptlessRejected, "deoptless_rejected", Counter,                        \
    "fell through to a true deopt")                                          \
  X(AssumeChecks, "assume_checks", Counter,                                  \
    "dynamic Assume guard executions")                                       \
  X(AssumeFailures, "assume_failures", Counter,                              \
    "failed guards (incl. injected ones)")                                   \
  X(InjectedFailures, "injected_failures", Counter,                          \
    "random invalidation-mode triggers")                                     \
  X(Reoptimizations, "reoptimizations", Counter,                             \
    "profile-driven recompiles (Fig. 11)")                                   \
  X(CtxVersions, "ctx_versions", Counter,                                    \
    "context-specialized versions compiled")                                 \
  X(CtxDispatchHits, "ctx_dispatch_hits", Counter,                           \
    "calls run by a specialized version")                                    \
  X(CtxDispatchMisses, "ctx_dispatch_misses", Counter,                       \
    "context-dispatch calls that fell back to the generic version or "       \
    "baseline")                                                              \
  X(InlinedCalls, "inlined_calls", Counter,                                  \
    "call sites spliced by opt/inline")                                      \
  X(HoistedInstrs, "hoisted_instrs", Counter,                                \
    "pure instructions LICM moved into a loop preheader")                    \
  X(HoistedGuards, "hoisted_guards", Counter,                                \
    "loop-invariant guards re-anchored to a preheader frame state")          \
  X(EliminatedGuards, "eliminated_guards", Counter,                          \
    "guards removed as dominated by an equivalent guard")                    \
  X(MultiFrameDeopts, "multi_frame_deopts", Counter,                         \
    "OSR-outs that rebuilt >1 frame")                                        \
  X(InlineFramesMaterialized, "inline_frames_materialized", Counter,         \
    "interpreter frames synthesized for inlined callers on OSR-out / "       \
    "after a deoptless continuation")                                        \
  X(DeoptlessInlineDispatches, "deoptless_inline_dispatches", Counter,       \
    "deoptless dispatches keyed on an inlined (innermost) frame")            \
  X(AsyncCompiles, "async_compiles", Counter,                                \
    "jobs executed by the compiler pool")                                    \
  X(CompileQueueDepth, "compile_queue_depth", Gauge,                         \
    "queued (not yet popped) requests; highWater() is the depth peak")       \
  X(WarmupPausesAvoided, "warmup_pauses_avoided", Counter,                   \
    "dispatches that kept running the baseline while a background compile " \
    "was pending instead of pausing to compile synchronously")               \
  X(NativeCompiles, "native_compiles", Counter,                              \
    "executables emitted by the x86-64 template-JIT backend")                \
  X(NativeEnters, "native_enters", Counter,                                  \
    "activations entered through native (template-JIT) code")               \
  X(NativeLinkedTransfers, "native_linked_transfers", Counter,               \
    "calls transferred native-to-native through a direct-linked call site " \
    "(bypassing full VM dispatch)")                                          \
  X(NativeFusedOps, "native_fused_ops", Counter,                             \
    "LowCode instruction pairs the v2 tier emitted as one fused "            \
    "superinstruction (compile time)")                                       \
  X(NativeRegSpills, "native_reg_spills", Counter,                           \
    "raw-slot live ranges with uses that were denied a register home "       \
    "(pool exhausted)")                                                      \
  X(GraveyardSize, "graveyard_size", Gauge,                                  \
    "retired executables awaiting safepoint reclamation; the owning Vm "    \
    "re-syncs the level (setLevel) on every retire and reclaim, so a "       \
    "mid-run resetStats() self-heals; highWater() is the peak population "   \
    "since the reset")                                                       \
  X(GcCollections, "gc_collections", Counter,                                \
    "heap cycle-collector passes run (safepoint-triggered + teardown)")      \
  X(GcFreedBytes, "gc_freed_bytes", Counter,                                 \
    "bytes reclaimed by cycle collection (refcount-unreachable "             \
    "Env/closure/list cycles)")                                              \
  X(HeapLiveBytes, "heap_live_bytes", Gauge,                                 \
    "live value-heap bytes; re-synced (setLevel) on every tracked "          \
    "alloc/free, so it self-heals after resetStats; highWater() is the "     \
    "heap peak since the reset")

/// Counters for the events the paper's evaluation reports on. Copyable so
/// harness code can snapshot/diff it by value.
struct VmStats {
#define RJIT_STAT_MEMBER(Member, Name, Kind, Help) Relaxed##Kind Member;
  RJIT_VM_STATS(RJIT_STAT_MEMBER)
#undef RJIT_STAT_MEMBER

  /// Difference of two snapshots, counter by counter. A gauge is a level,
  /// not an event count: a per-phase diff would report nonsense (e.g.
  /// zero when the later phase peaked lower), so the difference carries
  /// the later snapshot's level and high-water unchanged.
  VmStats operator-(const VmStats &O) const;

  /// Accumulates a later snapshot \p O: counters add; gauges take O's
  /// level and the higher of the two high-waters.
  VmStats &operator+=(const VmStats &O);
};

/// Process-wide statistics instance.
VmStats &stats();

/// Resets all counters to zero.
void resetStats();

} // namespace rjit

#endif // RJIT_SUPPORT_STATS_H
