//===-- osr/deoptless.h - Dispatched specialized continuations ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: deoptimization points become
/// assumption-polymorphic dispatch sites over specialized optimized
/// continuations. Each function owns a bounded dispatch table of
/// continuations keyed by DeoptContext; on a failing guard the handler
/// computes the current context, dispatches (first entry whose context is
/// >= the current one in the partial order), possibly compiles a new
/// continuation (with repaired feedback, see opt/cleanup), and invokes it
/// directly with the live state — never leaving optimized code.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_DEOPTLESS_H
#define RJIT_OSR_DEOPTLESS_H

#include "exec/backend.h"
#include "opt/translate.h"
#include "osr/reason.h"
#include "support/cowlist.h"

#include <memory>
#include <mutex>
#include <vector>

namespace rjit {

/// One compiled continuation with its compilation context. Immutable after
/// publication except Hits, which only the owning executor touches.
struct Continuation {
  DeoptContext Ctx;
  std::unique_ptr<ExecutableCode> Code;
  uint32_t Hits = 0;
};

/// Per-function dispatch table (paper §4.3: at most 5 entries; the table
/// is kept sorted from most to least specialized and scanned for the first
/// compatible entry).
///
/// Concurrency: like VersionTable, the sorted linearization is published
/// copy-on-write (release store / acquire load), so the executor's guard
/// failure path dispatches lock-free while a background continuation job
/// publishes. insert() serializes writers internally. The capacity is
/// fixed at construction (from the active DeoptlessConfig) so a compiler
/// thread never consults the executor's thread-local config.
class DeoptlessTable {
public:
  DeoptlessTable();
  DeoptlessTable(const DeoptlessTable &) = delete;
  DeoptlessTable &operator=(const DeoptlessTable &) = delete;
  DeoptlessTable(DeoptlessTable &&) = delete;

  /// First continuation callable from \p Ctx, or null. Lock-free.
  Continuation *dispatch(const DeoptContext &Ctx);

  /// Inserts \p Code for \p Ctx; returns false when the table is full or
  /// an exact entry for \p Ctx already exists (a background job lost a
  /// publication race).
  bool insert(DeoptContext Ctx, std::unique_ptr<ExecutableCode> Code);

  size_t size() const { return snapshot().size(); }
  bool full() const { return size() >= Cap; }

  /// Snapshot of the entries, most specialized first.
  std::vector<Continuation *> entries() const { return snapshot(); }

private:
  const std::vector<Continuation *> &snapshot() const {
    return List.read();
  }

  CowList<Continuation> List;
  /// Fixed at construction from the active DeoptlessConfig, so a
  /// compiler thread never consults the executor's thread-local config.
  const uint32_t Cap;
  std::mutex WriterMu;
};

/// Deoptless tuning knobs (paper defaults). This is a *derived view*:
/// Vm::Config is the single source of truth, and the Vm installs the
/// values via configureDeoptless when it is constructed.
/// Standalone unit tests may call configureDeoptless directly.
struct DeoptlessConfig {
  bool Enabled = false;
  bool FeedbackCleanup = true; ///< the §4.3 cleanup pass (ablation toggle)
  uint32_t MaxContinuations = 5;
  /// The optimizer knob set continuation compiles run under, installed by
  /// the Vm (the same set its whole-function versions use, so
  /// continuations keep the tier's code quality): a continuation entered
  /// at a preheader-pc frame state re-optimizes the loop it resumes into.
  OptOptions Opt;
  /// Background compilation: when set, a continuation miss *requests* an
  /// async compile through this hook and falls back to a true
  /// deoptimization for the current failure; once the continuation is
  /// published, later failures dispatch to it without ever pausing.
  /// Null (the default) keeps today's synchronous inline compile.
  bool (*AsyncCompile)(Function *Fn, const DeoptContext &Ctx) = nullptr;
};

/// The active configuration (read-only; see configureDeoptless).
const DeoptlessConfig &deoptlessConfig();

/// Installs the configuration derived from the active Vm's Config (or
/// defaults on teardown).
void configureDeoptless(const DeoptlessConfig &Cfg);

/// Side table: per-function dispatch tables (owned here so lower layers
/// need no knowledge of the VM's tier bookkeeping). The registry is
/// mutex-sharded like TierRegistry — >8-executor workloads each creating
/// tables for their own functions contend on a shard, never on one global
/// lock — and tables are node-stable: pointers handed to background
/// continuation jobs stay valid until the owning executor clears them.
DeoptlessTable &deoptlessTableFor(Function *Fn);

/// Installs the opaque owner tag (the active Vm) new tables created on
/// this thread are attributed to; null reverts to plain thread-identity
/// tagging (standalone tests). Installed by the Vm alongside its hooks.
void setDeoptlessTableOwner(const void *Owner);

/// Drops the dispatch tables attributed to \p Owner. Callable from any
/// thread — Vm teardown reclaims its tables even when the Vm object is
/// destroyed off its executor thread — and never touches tables of
/// concurrently running executors.
void releaseDeoptlessTables(const void *Owner);

/// Drops the dispatch tables created by *this thread* (standalone-test
/// resets). Other executors' tables are untouched — with the sharded
/// registry a reset must not free tables whose functions belong to a
/// concurrently running executor.
void clearDeoptlessTables();

/// Attempts the deoptless path for a failing guard. Returns true and sets
/// \p Result when a continuation handled the rest of the activation;
/// returns false when the caller must perform a true deoptimization.
/// For a guard inside an inlined callee the context lattice and the
/// continuation table are keyed on the *innermost* frame (the callee's
/// function and pc); the synthesized caller frames are then resumed in the
/// baseline interpreter so the activation still yields the caller's value.
bool tryDeoptless(const LowFunction &F, std::vector<Value> &Slots,
                  const DeoptMeta &Meta, Env *ParentEnv, bool Injected,
                  Value &Result);

/// The repaired profile a continuation for \p Ctx must be compiled
/// against (paper §4.3 "Incomplete Profile Data"). Reads live feedback:
/// call on the executor thread (synchronous compile, or at enqueue time
/// of a background continuation job).
FeedbackTable repairedContinuationFeedback(Function *Fn,
                                           const DeoptContext &Ctx,
                                           bool CleanupEnabled);

/// Compiles the continuation code for \p Ctx (prepared for Opts.Backend).
/// The caller must have made the repaired profile visible to the
/// optimizer first (a SnapshotScope whose table for \p Fn is the repaired
/// feedback) — this is what keeps the compile readable from a background
/// thread while the interpreter keeps writing the live profile.
std::unique_ptr<ExecutableCode> compileContinuationCode(
    Function *Fn, const DeoptContext &Ctx, const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_OSR_DEOPTLESS_H
