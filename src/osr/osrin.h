//===-- osr/osrin.h - OSR-in (tiering up) ------------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OSR-in (paper §4.2): when a loop in the baseline interpreter becomes
/// hot, compile a one-shot continuation from the current bytecode pc — the
/// interpreter's operand stack values become call arguments — run it to
/// completion, and return its result as the activation's result. The next
/// invocation of the function is compiled from the beginning by the VM.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_OSRIN_H
#define RJIT_OSR_OSRIN_H

#include "bc/interp.h"
#include "exec/backend.h"
#include "lowcode/lowcode.h"
#include "opt/translate.h"
#include "runtime/env.h"

namespace rjit {

/// OSR-in knobs.
struct OsrInConfig {
  bool Enabled = false;
  /// The optimizer knob set OSR-in continuation compiles run under,
  /// installed by the Vm (the same set its whole-function versions use).
  /// OSR-in entry blocks *are* loop headers, so preheader synthesis and
  /// guard re-anchoring must hold here too.
  OptOptions Opt;
};

OsrInConfig &osrInConfig();

/// The hook to install into interpHooks().OsrIn.
bool osrInHook(Function *Fn, Env *E, std::vector<Value> &Stack, int32_t Pc,
               Value &Result);

/// The exact entry state of a hot backedge: the interpreter's operand
/// stack and (for elidable environments) the current binding types.
/// Shared by the synchronous hook and background OSR-in compilation.
EntryState buildOsrEntryState(Function *Fn, Env *E,
                              const std::vector<Value> &Stack, int32_t Pc);

/// Enters compiled OSR-in code with the interpreter's live values (stack
/// first, then — for elided code — the environment bindings in the entry
/// order) and returns the activation's result.
Value enterOsrContinuation(ExecutableCode &Code, const EntryState &Entry,
                           Env *E, std::vector<Value> &Stack);

/// Per-thread OSR-in compile blacklist (functions whose continuation
/// compile failed; don't retry every backedge).
bool osrInBlacklisted(Function *Fn);
void osrInBlacklist(Function *Fn);

/// Restores the calling thread's OSR-in state — config and blacklist — to
/// defaults (Vm teardown). The blacklist must not outlive its Vm: a later
/// Vm on the thread may allocate a Function at a dead one's address, which
/// would then silently never be OSR-compiled.
void resetOsrIn();

} // namespace rjit

#endif // RJIT_OSR_OSRIN_H
