// Runtime-dispatched SIMD kernels behind the repo's scalar contracts (see
// DESIGN.md "SIMD kernels & dispatch").
//
// The hot inner loops — flat-ensemble block descent, binned histogram
// builds, the uint8 bin transform, dense gemm — are branch-light SoA loops
// whose results are pinned by golden-hash determinism tests. This header
// gives them explicitly vectorized implementations without giving up those
// contracts:
//
//  * KernelTable: one function pointer per kernel. Callers fetch the active
//    table once per operation (`simd::kernels()`, a single relaxed atomic
//    load) and call through it; every table entry honours the *same*
//    bit-exactness contract as the scalar reference lane, so dispatch level
//    is unobservable in results (MEMFP_SIMD=scalar ≡ auto, bit for bit,
//    wherever the contract is exact — see the per-entry comments).
//  * One table per architecture lane, each compiled in its own translation
//    unit with that lane's -m flags (and -ffp-contract=off, so no fused
//    multiply-adds sneak in where the scalar lane has separate mul + add):
//    scalar (portable reference), AVX2, AVX-512, NEON. Lanes whose flags the
//    compiler lacks, or that target another architecture, compile to a stub
//    that reports "not available".
//  * A one-time runtime dispatcher picks the best table the *host CPU*
//    supports (CPUID via __builtin_cpu_supports), overridable with
//    MEMFP_SIMD={auto,avx512,avx2,neon,scalar}. Unrecognized or
//    host-unsupported values fall back to the scalar reference lane rather
//    than crash on an illegal instruction.
//  * Vec<T, N>: a fixed-width vector wrapper over GCC/Clang vector
//    extensions, used by the shared generic kernel bodies
//    (simd_kernels_generic.h) that the AVX2/AVX-512/NEON lanes instantiate
//    at their native widths. Only the per-lane kernel TUs may do arithmetic
//    with these types (their instruction selection follows the including
//    TU's -m flags); everything else treats this header as the dispatch API.
//
// Raw <immintrin.h>/<arm_neon.h> use anywhere outside src/common/simd* is
// rejected by memfp-lint (rule arch-intrinsics): every architecture-aware
// loop lives behind this one dispatch seam.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace memfp::simd {

/// Dispatch lanes, ordered by preference within an architecture. kScalar is
/// always available and is the reference lane every other lane must match.
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Stable lowercase name ("scalar", "avx2", "avx512", "neon") — the values
/// MEMFP_SIMD accepts, and what benches/tests print.
const char* level_name(Level level);

/// Parses a MEMFP_SIMD value ("auto" excluded); returns false on unknown.
bool parse_level(const char* name, Level* out);

/// Array-padding granularity of KernelTable::gini_gain_scan (the widest
/// lane's double count). Callers round the candidate arrays up to this many
/// slots and zero the input pads.
inline constexpr int kGainScanPad = 8;

// ---------------------------------------------------------------------------
// Fixed-width vector wrapper (compiler vector extensions).
// ---------------------------------------------------------------------------

/// `Vec<double, 8>::type` is a 512-bit vector of 8 doubles. Element access
/// is `v[i]`; arithmetic/comparison operators are elementwise; `m ? a : b`
/// is a lane select on an integer mask vector of matching shape.
template <class T, int N>
struct Vec {
  static_assert(N > 0 && (N & (N - 1)) == 0, "vector lanes must be a power of two");
  typedef T type __attribute__((vector_size(sizeof(T) * N)));
};

template <class T, int N>
using VecT = typename Vec<T, N>::type;

/// Unaligned load/store: vectors alias arbitrary element buffers.
template <class V>
inline V vload(const void* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <class V>
inline void vstore(void* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

/// Broadcast: every lane = x (vector + scalar is elementwise broadcast).
template <class V, class T>
inline V vsplat(T x) {
  return V{} + x;
}

// ---------------------------------------------------------------------------
// The kernel table.
// ---------------------------------------------------------------------------

/// One function pointer per vectorized kernel. All entries are non-null in
/// every table except the entries marked "Nullable" (the flat-ensemble
/// block kernels and partition, which need AVX-512 gathers/compress-stores
/// to beat scalar); their callers keep a scalar fallback.
///
/// Bit-exactness contracts (each entry must match the scalar lane exactly):
///  * histogram / pair-sum entries: per-accumulator adds happen in row
///    order; a (wide) two-lane add is two independent IEEE adds, so the
///    (a, b) interleaved pairs are bit-identical to two scalar chains.
///  * gini_gain_scan: per-lane IEEE op order replicates the scalar
///    expression `((2.0 * p) * (1.0 - p)) * total` and `(parent - l) - r`;
///    invalid candidates get -inf so the caller's strict `>` argmax (first
///    maximum wins) is unchanged. This is the one kernel DESIGN.md's ulp
///    policy covers: lanes may reassociate only up to the documented ulp
///    budget, and today's lanes spend none of it.
///  * partition / bin_transform / flat descent: integer or comparison
///    results only — exact by construction.
///  * gemm entries: per-output-element multiply/add order is the scalar
///    kernel's; lanes are compiled with -ffp-contract=off so no FMA fuses
///    what the scalar lane keeps separate.
struct KernelTable {
  Level level;

  /// Classification histogram over row-major codes: for slice row r (in
  /// order), hist[2 * (offset[f] + row_codes[r * features + f])] += wp[2r]
  /// and the +1 slot += wp[2r + 1], for every feature f.
  void (*hist_rowmajor)(const std::uint32_t* rows, std::size_t n,
                        const double* wp, const std::uint8_t* row_codes,
                        std::size_t features, double* hist,
                        const std::uint32_t* offset);

  /// Gradient histogram over one feature-major code column:
  /// hist[2 * codes[r]] += gh[2r], hist[2 * codes[r] + 1] += gh[2r + 1].
  void (*hist_column)(const std::uint32_t* rows, std::size_t n,
                      const double* gh, const std::uint8_t* codes,
                      double* hist);

  /// out[i] = parent[i] - sibling[i] for i < n (histogram subtraction).
  void (*hist_subtract)(double* out, const double* parent,
                        const double* sibling, std::size_t n);

  /// (a, b) = row-order sums of the interleaved pairs wp[2r], wp[2r + 1].
  void (*pair_sum)(const std::uint32_t* rows, std::size_t n, const double* wp,
                   double* a, double* b);

  /// Weighted-gini split gains for `count` candidate bins from the left
  /// prefix sums (left_total[b], left_pos[b]); candidates failing
  /// min_samples_leaf get -inf. All three arrays must extend to `count`
  /// rounded up to kGainScanPad slots, with the input pads zeroed: lanes
  /// run full-width vectors over the pad instead of a scalar tail (zeros
  /// divide safely and cannot denormal-stall), and may scribble on
  /// gains[count..pad) — callers read only the first `count` gains.
  void (*gini_gain_scan)(const double* left_total, const double* left_pos,
                         int count, double total, double pos,
                         double parent_impurity, double min_samples_leaf,
                         double* gains);

  /// Nullable. Stable two-way partition of rows[0, n) by codes[r] <= bin;
  /// returns the left count. scratch holds n slots. guard is the number of
  /// bytes readable from `codes`: lanes that gather 4 bytes per uint8 code
  /// classify any step containing a row with r + 4 > guard scalar in place
  /// (row values need no ordering), so no gather reads past the buffer.
  std::size_t (*partition)(std::uint32_t* rows, std::size_t n,
                           const std::uint8_t* codes, std::uint8_t bin,
                           std::uint32_t* scratch, std::size_t guard);

  /// codes[i] = number of thresholds < column[i] (thresholds ascending) —
  /// BinMapper::bin's lower-bound index, NaN included (count 0).
  void (*bin_transform)(const float* column, std::size_t n,
                        const float* thresholds, int count,
                        std::uint8_t* codes);

  /// out[m x n] += a[m x k] * b[k x n], row-major, ikj order.
  void (*gemm)(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n);
  /// out[m x n] += a^T[m x k] * b[k x n] with a stored k x m.
  void (*gemm_at)(const float* a, const float* b, float* out, std::size_t m,
                  std::size_t k, std::size_t n);
  /// out[m x n] += a[m x k] * b^T[k x n] with b stored n x k. Each output
  /// element keeps its own sequential accumulation over k, added into out
  /// at the end — the scalar kernel's exact shape.
  void (*gemm_bt)(const float* a, const float* b, float* out, std::size_t m,
                  std::size_t k, std::size_t n);

  /// Nullable. Scores one full 64-row block of float rows against packed
  /// flat-ensemble nodes (see FlatEnsemble's packed layout: threshold bits
  /// | feature << 32 | left-delta << 48 per uint64). x_block points at the
  /// block's first row, rows are contiguous with stride `cols`; out_block
  /// at the block's first output. Callers must pre-check the pack succeeded
  /// and fall back to the scalar block loop otherwise.
  void (*flat_float_block)(const std::uint64_t* nodes, const double* values,
                           const std::int32_t* roots,
                           const std::int32_t* depths, std::size_t trees,
                           const float* x_block, std::size_t cols, double init,
                           bool accumulate, double* out_block);

  /// Nullable. Binned variant over a feature-major code matrix (codes[f *
  /// rows + r]); packed node low 32 bits hold the bin threshold instead of
  /// float bits. The caller must keep blocks whose 4-byte code gathers
  /// could cross the end of `codes` (the last rows of the last feature) on
  /// the scalar path.
  void (*flat_binned_block)(const std::uint64_t* nodes, const double* values,
                            const std::int32_t* roots,
                            const std::int32_t* depths, std::size_t trees,
                            const std::uint8_t* codes, std::size_t rows,
                            std::size_t base_row, double init, bool accumulate,
                            double* out_block);
};

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

/// The active kernel table: resolved once from the host CPU and MEMFP_SIMD
/// on first use, then a single relaxed atomic load. Fetch it once per
/// operation (not per inner-loop iteration) and call through it.
const KernelTable& kernels();

/// The active table's lane.
Level active_level();

/// The table for an explicit lane, or nullptr when the lane was not
/// compiled in or the host CPU lacks its instructions. table_for(kScalar)
/// never returns nullptr.
const KernelTable* table_for(Level level);

/// Every lane table_for() would accept on this host, kScalar first.
std::vector<Level> supported_levels();

/// Detected host CPU features, space-separated (e.g. "sse2 avx avx2
/// avx512f avx512dq avx512bw avx512vl") — recorded by bench context blocks
/// so perf trajectories say what hardware produced them.
std::string cpu_features();

/// Test/bench override: swaps the active table for a supported level and
/// restores the previous one on destruction. Not safe to overlap with
/// concurrently *running* kernels — switch between operations, as the
/// dispatch-equality tests do.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  const KernelTable* prev_;
};

}  // namespace memfp::simd
