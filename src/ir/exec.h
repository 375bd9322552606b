// Execution of Kernel IR on the virtual GPU.
//
// KernelExec adapts a KernelIR to sim::KernelBody. The runtime binds each
// array parameter to the resident segment on the launching device; the
// interpreter enforces residency (a read or unchecked write outside the
// bound segment throws DeviceError — on real hardware that is a corrupted
// result, here it is a loud failure), performs the paper's write-miss
// spilling for distributed arrays, marks two-level dirty bits for replicated
// arrays, and privatizes reductions and write-miss records per chunk of the
// engine's fixed grid (sim/kernel.h). Chunks fold into the launch's outputs
// in grid order, so float reductions and the miss replay order are the same
// on every host.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/ir.h"
#include "sim/kernel.h"

namespace accmg::ir {

/// One write that missed the local segment: destination global index plus the
/// raw element bits (Section IV-D2's (address, data) record).
struct WriteMissRecord {
  std::int64_t index = 0;
  std::uint64_t raw = 0;
};

/// Per-device system buffer collecting write misses during a kernel, in
/// chunk order (chunk batches are appended as the launch folds).
struct MissBuffer {
  std::vector<WriteMissRecord> records;
};

/// Two-level dirty bit state for one replicated array (Section IV-D1).
/// Level 1 has one byte per element; level 2 one byte per chunk.
struct DirtyBits {
  std::uint8_t* level1 = nullptr;
  std::uint8_t* level2 = nullptr;
  std::int64_t chunk_elems = 0;  ///< elements per level-2 chunk
};

/// How one kernel array parameter is bound on the launching device.
///
/// [lo, hi) is the loaded (readable) range, including halo elements fetched
/// from neighbouring owners. [write_lo, write_hi) is the owned range this
/// device may write directly; writes outside it are spilled to the miss
/// buffer (distributed arrays) or faulted (a translator/runtime bug). For
/// replicated arrays both ranges cover the whole array.
struct ArrayBinding {
  std::byte* data = nullptr;      ///< base of the RESIDENT segment
  std::int64_t lo = 0;            ///< first resident global index
  std::int64_t hi = 0;            ///< one past last resident global index
  std::int64_t write_lo = 0;      ///< first owned (directly writable) index
  std::int64_t write_hi = 0;      ///< one past last owned index
  std::int64_t logical_size = 0;  ///< full array extent (diagnostics)
  DirtyBits dirty;                ///< level1 == nullptr when untracked
  MissBuffer* miss = nullptr;     ///< non-null for miss-checked arrays
};

/// Raw 64-bit register image of a scalar value of the given type.
std::uint64_t EncodeScalar(ValType type, double fval, std::int64_t ival);

class KernelExec final : public sim::KernelBody {
 public:
  explicit KernelExec(const KernelIR& kernel);

  /// --- launch configuration (set before Platform::LaunchKernels) ---
  std::vector<ArrayBinding> bindings;       ///< parallel to kernel.arrays
  std::vector<std::uint64_t> scalar_values; ///< parallel to kernel.scalars
  /// Added to the local thread id to form the loop iteration index
  /// (task-mapping offset of the launching GPU).
  std::int64_t iteration_offset = 0;
  /// Resolved reduction-to-array sections, parallel to
  /// kernel.array_reductions.
  std::vector<std::int64_t> array_red_lower;
  std::vector<std::int64_t> array_red_length;

  /// --- outputs (valid after the launch returns; chunks fold into them) ---
  /// Raw combined value per scalar reduction (initialized to the identity).
  const std::vector<std::uint64_t>& scalar_red_results() const {
    return scalar_red_results_;
  }
  /// Dense partial per array reduction (raw element bits, identity-filled).
  const std::vector<std::vector<std::uint64_t>>& array_red_partials() const {
    return array_red_partials_;
  }

  /// Resets outputs to identities; must be called before every launch.
  void ResetOutputs();

  std::unique_ptr<sim::ChunkOutput> RunChunk(
      std::int64_t tid_begin, std::int64_t tid_end) const override;

  /// Level 2 of the hierarchical reduction: combines the chunk's partials
  /// into the launch's outputs and appends its miss records to the buffers.
  void Fold(sim::ChunkOutput& chunk) override;

 private:
  const KernelIR& kernel_;

  std::vector<std::uint64_t> scalar_red_results_;
  std::vector<std::vector<std::uint64_t>> array_red_partials_;
};

/// Identity element of a reduction, as raw bits of `type`.
std::uint64_t ReductionIdentity(RedOp op, ValType type);

/// Combines two raw values of `type` with `op`, returning raw bits.
std::uint64_t CombineRaw(RedOp op, ValType type, std::uint64_t a,
                         std::uint64_t b);

/// Folds a dense reduction partial into the array elements it covers:
/// base[lower + j] = CombineRaw(op, type, base[lower + j], partial[j]), where
/// `base` holds elements of `type`.
void FoldPartialInto(RedOp op, ValType type, std::byte* base,
                     std::int64_t lower,
                     const std::vector<std::uint64_t>& partial);

/// In-place span combine: acc[j] = CombineRaw(op, type, acc[j], src[j]) for
/// j in [0, n). Bit-identical to the per-element calls, but the op/type
/// dispatch happens once so the inner loop is tight enough to vectorize —
/// this is the hot loop of multi-GPU array-reduction merges.
void CombineRawSpan(RedOp op, ValType type, std::uint64_t* acc,
                    const std::uint64_t* src, std::size_t n);

}  // namespace accmg::ir
