// AVX2 lane: the width-generic kernel bodies instantiated at 256 bits
// (4 doubles / 8 floats). Compiled with -mavx2 -ffp-contract=off when the
// compiler supports it (see src/common/CMakeLists.txt); otherwise — or on a
// non-x86 target — the stub below reports the lane as unavailable. The
// flat-ensemble descent and the compress-store partition need AVX-512
// gathers/masks, so this lane leaves them to the callers' scalar fallbacks.
#include "common/simd_kernels.h"

#if defined(__AVX2__) && defined(__x86_64__)

#include <vector>

#include "common/simd_kernels_generic.h"

namespace memfp::simd {
namespace {

void gemm_bt_avx2(const float* a, const float* b, float* out, std::size_t m,
                  std::size_t k, std::size_t n) {
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  generic::gemm_bt<8>(a, b, out, m, k, n, bt.data());
}

const KernelTable kAvx2Table = {
    Level::kAvx2,
    generic::hist_rowmajor,
    generic::hist_column,
    generic::hist_subtract<4>,
    generic::pair_sum,
    generic::gini_gain_scan<4>,
    /*partition=*/nullptr,
    generic::bin_transform<8>,
    generic::gemm<8>,
    generic::gemm_at<8>,
    gemm_bt_avx2,
    /*flat_float_block=*/nullptr,
    /*flat_binned_block=*/nullptr,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace memfp::simd

#else  // !(__AVX2__ && __x86_64__)

namespace memfp::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace memfp::simd

#endif
