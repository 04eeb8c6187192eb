#include "eval/knn.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "autograd/parallel.h"
#include "autograd/runtime_context.h"
#include "tensor/gemm.h"
#include "tensor/lowp.h"
#include "tensor/matmul.h"

namespace metalora {
namespace eval {

Result<KnnResult> KnnClassify(const Tensor& ref_features,
                              const std::vector<int64_t>& ref_labels,
                              const Tensor& query_features,
                              const std::vector<int64_t>& query_labels,
                              const KnnOptions& options) {
  if (options.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (ref_features.rank() != 2 || query_features.rank() != 2) {
    return Status::InvalidArgument("KNN expects [N, D] feature matrices");
  }
  const int64_t m = ref_features.dim(0), d = ref_features.dim(1);
  const int64_t n = query_features.dim(0);
  if (m == 0) return Status::InvalidArgument("empty reference set");
  if (query_features.dim(1) != d) {
    return Status::InvalidArgument("feature dimensionality mismatch");
  }
  if (static_cast<int64_t>(ref_labels.size()) != m ||
      static_cast<int64_t>(query_labels.size()) != n) {
    return Status::InvalidArgument("label count mismatch");
  }
  const int k = std::min<int>(options.k, static_cast<int>(m));

  // Row norms, then cross products: dist² = |q|² + |r|² - 2 q·r. Norms
  // run kNormRows rows at a time so their independent chains overlap; each
  // row still sums j = 0..d-1 in order into its own double.
  constexpr int64_t kNormRows = 4;
  std::vector<double> ref_norm(static_cast<size_t>(m));
  const float* pr = ref_features.data();
  int64_t i0 = 0;
  for (; i0 + kNormRows <= m; i0 += kNormRows) {
    double acc[kNormRows] = {};
    for (int64_t j = 0; j < d; ++j) {
      for (int64_t r = 0; r < kNormRows; ++r) {
        const double v = pr[(i0 + r) * d + j];
        acc[r] += v * v;
      }
    }
    for (int64_t r = 0; r < kNormRows; ++r) {
      ref_norm[static_cast<size_t>(i0 + r)] = acc[r];
    }
  }
  for (; i0 < m; ++i0) {
    double acc = 0;
    const float* row = pr + i0 * d;
    for (int64_t j = 0; j < d; ++j) acc += static_cast<double>(row[j]) * row[j];
    ref_norm[static_cast<size_t>(i0)] = acc;
  }

  // Cross products [N, D] x [M, D]ᵀ, computed in query blocks so peak memory
  // is block×M rather than N×M. Blocks are independent — each writes a
  // disjoint slice of predictions — so they dispatch across the pool, one
  // scratch arena per worker; the block buffer is recycled between blocks.
  constexpr int64_t kQueryBlock = 256;

  // The distance GEMM bypasses the op facades, so the autocast policy is
  // resolved here explicitly (GEMM category; the top-k selection and norm
  // reductions stay fp64/fp32 — reductions are pinned). Under int8 the
  // reference matrix plays the frozen-weight role: quantize it once per
  // call (per-reference-row scales) and reuse the pack for every query
  // block, exactly the quantize-once serving pattern.
  autograd::RuntimeContext& caller = autograd::RuntimeContext::Current();
  const OpPrecision gemm_prec = caller.PrecisionFor(OpCategory::kGemm);
  caller.RecordGemmDispatch(gemm_prec);
  std::shared_ptr<const lowp::Int8PackedWeight> ref_pack;
  if (gemm_prec == OpPrecision::kInt8) {
    ref_pack = lowp::FindInt8Shadow(ref_features.data(), d, m);
    if (ref_pack == nullptr) {
      ref_pack = std::make_shared<lowp::Int8PackedWeight>(
          lowp::PackInt8Weight(ref_features.data(), /*trans_b=*/true, d, m));
    }
  }

  KnnResult result;
  result.predictions.resize(static_cast<size_t>(n));
  const int64_t nblocks = (n + kQueryBlock - 1) / kQueryBlock;
  std::vector<int64_t> block_correct(
      static_cast<size_t>(std::max<int64_t>(nblocks, 0)), 0);
  const float* pq = query_features.data();
  autograd::ParallelApplyNoGrad(
      0, n, kQueryBlock,
      [&](int64_t lo, int64_t hi, autograd::RuntimeContext& ctx) {
        Tensor dots = ctx.arena()->AllocateUninitialized(Shape{hi - lo, m});
        if (gemm_prec == OpPrecision::kInt8) {
          GemmInt8Prepacked(pq + lo * d, *ref_pack, dots.data(), hi - lo,
                            /*accumulate=*/false);
        } else if (gemm_prec == OpPrecision::kBf16) {
          GemmPackedBf16(pq + lo * d, false, ref_features.data(), true,
                         dots.data(), hi - lo, d, m, /*accumulate=*/false);
        } else {
          MatmulTransBInto(query_features.SliceRows(lo, hi), ref_features,
                           &dots);
        }
        const float* pd = dots.data();
        int64_t correct = 0;
        // The k nearest so far, ascending in (dist, index) — the order
        // partial_sort over all m candidates would give them.
        std::vector<std::pair<double, int64_t>> nearest;
        nearest.reserve(static_cast<size_t>(k));
        for (int64_t q = lo; q < hi; ++q) {
          double qn = 0;
          const float* qrow = pq + q * d;
          for (int64_t j = 0; j < d; ++j) {
            qn += static_cast<double>(qrow[j]) * qrow[j];
          }

          nearest.clear();
          const float* drow = pd + (q - lo) * m;
          for (int64_t i = 0; i < m; ++i) {
            double dist;
            if (options.metric == KnnMetric::kL2) {
              dist = qn + ref_norm[static_cast<size_t>(i)] - 2.0 * drow[i];
            } else {
              const double denom =
                  std::sqrt(std::max(qn, 1e-12)) *
                  std::sqrt(std::max(ref_norm[static_cast<size_t>(i)], 1e-12));
              dist = 1.0 - static_cast<double>(drow[i]) / denom;
            }
            // Indices rise, so a candidate that ties the current k-th
            // distance orders after it and stays out.
            const std::pair<double, int64_t> cand(dist, i);
            if (static_cast<int>(nearest.size()) == k) {
              if (!(cand < nearest.back())) continue;
              nearest.pop_back();
            }
            nearest.insert(
                std::upper_bound(nearest.begin(), nearest.end(), cand), cand);
          }

          // Majority vote; ties resolved toward the class of the nearest
          // member: the first label, in nearest order, with the top count.
          int best_count = 0;
          int64_t best_label = -1;
          for (int a = 0; a < k; ++a) {
            const int64_t label = ref_labels[static_cast<size_t>(
                nearest[static_cast<size_t>(a)].second)];
            int count = 0;
            for (int b = 0; b < k; ++b) {
              count += ref_labels[static_cast<size_t>(
                           nearest[static_cast<size_t>(b)].second)] == label;
            }
            if (count > best_count) {
              best_count = count;
              best_label = label;
            }
          }
          result.predictions[static_cast<size_t>(q)] = best_label;
          if (best_label == query_labels[static_cast<size_t>(q)]) ++correct;
        }
        block_correct[static_cast<size_t>(lo / kQueryBlock)] = correct;
      });
  int64_t correct = 0;
  for (int64_t c : block_correct) correct += c;
  result.accuracy = n > 0 ? static_cast<double>(correct) / n : 0.0;
  return result;
}

}  // namespace eval
}  // namespace metalora
