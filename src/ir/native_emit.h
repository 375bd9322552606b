// The native tier's emitter: one C++ function per decoded kernel.
//
// The emitted translation unit is kernel_ops.h's text followed by one
// extern "C" function with the NativeFn signature. IR registers become
// locals (zero at chunk start, like the interpreter's register file), basic
// blocks become labels, and every op is its ACCMG_DECODED_OPS expression
// with the shape's operand bindings. Each block charges its static cost on
// entry and checks the per-thread budget there, exactly as the interpreter
// does, and every fault returns a NativeStatus with its operands instead of
// throwing. So the compiled function computes the same bits, stats and
// miss records as the interpreter, by construction.
#pragma once

#include <string>

#include "ir/exec.h"

namespace accmg::ir {

/// Everything the emitted code depends on, as bytes: the decoded ops and
/// blocks, register and scalar layout, array element types and reduction
/// specs — not the kernel's or its arrays' names, which only error
/// messages read. Kernels with equal keys share one native build.
std::string NativeContentKey(const DecodedKernel& kernel);

/// The emitted translation unit, defining `symbol`.
std::string EmitNativeSource(const DecodedKernel& kernel,
                             const std::string& symbol);

}  // namespace accmg::ir
