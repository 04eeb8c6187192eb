// Low-precision shadow registration for whole modules.
//
// The tensor-level shadow registry (tensor/lowp.h) maps one frozen fp32
// weight to its prepacked bf16 form; this helper walks a module tree
// and registers every rank-2 parameter in one sweep. It is the bridge
// between "an adapter instance was just built/loaded and will never be
// mutated" (serve/adapter_registry.h's LoadInstance, eval-time snapshots
// in eval/experiment.cc) and the per-weight registry the GEMM facades
// consult.
//
// Only rank-2 parameters are registered — those are the x·Wᵀ Linear
// weights the bf16 prepacked path can serve. Conv filters and bias
// vectors are skipped (a bf16 conv packs its weight per call, and bias
// epilogues stay fp32). A parameter that is registered but never looked
// up costs only its shadow bytes.
//
// Contract: the module's parameters must stay frozen (no in-place updates)
// while the returned handles are alive. Drop the handles before resuming
// training; re-registering after the next freeze repacks from the new
// bytes.
#ifndef METALORA_CORE_PRECISION_SHADOWS_H_
#define METALORA_CORE_PRECISION_SHADOWS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/lowp.h"

namespace metalora {
namespace core {

/// Registers bf16 shadows for every rank-2 parameter in the subtree.
/// Returns one RAII handle per registered weight; the shadows (and the
/// packs' claim on the weights' storage) release when the vector dies.
std::vector<lowp::ShadowHandle> RegisterModuleShadows(nn::Module& module);

}  // namespace core
}  // namespace metalora

#endif  // METALORA_CORE_PRECISION_SHADOWS_H_
