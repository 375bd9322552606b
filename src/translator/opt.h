// Optimizing mid-end, run between lowering and codegen (CompileOptions::
// opt_level):
//  * fusion of adjacent parallel-loop offloads when the affine read/write
//    summaries prove no cross-offload dependence — each fusion deletes an
//    entire dirty-propagation + halo round at runtime;
//  * local common-subexpression elimination over the generated kernel IR;
//  * loop-invariant code motion out of inner (per-thread sequential) loops.
// Every rewrite bails out conservatively when legality cannot be proven;
// refusals are counted, never guessed through.
#pragma once

#include "ir/ir.h"
#include "translator/offload.h"

namespace accmg::translator {

/// Counts of rewrites applied (and refused) by one OptimizeFunction run.
/// The same values are accumulated into the global metrics registry as
/// opt.fusions, opt.hoists, opt.cse_hits and opt.bailouts. A fused run of
/// k loops counts k-1 fusions; each refused adjacent boundary counts one
/// bail-out.
struct OptStats {
  int fusions = 0;
  int hoists = 0;
  int cse_hits = 0;
  int bailouts = 0;
};

/// Runs the mid-end over one compiled (already lowered) function:
///   opt_level >= 1 — offload fusion + CSE;
///   opt_level >= 2 — additionally invariant hoisting.
/// Each maximal run of fusible adjacent offloads is lowered once, in place
/// of its first offload; the other loops of the run land in `fn.fused_away`
/// so the host interpreter skips them.
OptStats OptimizeFunction(CompiledFunction& fn, const CompileOptions& options);

/// Local value numbering + copy propagation per basic block, followed by a
/// global dead-code sweep. kLoad results participate, keyed on a per-array
/// store epoch so stores conservatively kill prior loads. Returns the number
/// of redundant instructions eliminated.
int CsePass(ir::KernelIR& kernel);

/// Hoists provably loop-invariant instructions out of innermost natural
/// loops in the kernel IR. Only instructions that already execute
/// unconditionally per loop entry (or whose execution is proven by constant
/// evaluation of the loop head) are moved, so traps, loads and register
/// contents are bit-identical to the unoptimized kernel. Returns the number
/// of instructions hoisted.
int HoistPass(ir::KernelIR& kernel);

}  // namespace accmg::translator
