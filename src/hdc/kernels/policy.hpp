#pragma once
// Kernel selection policy: capability-scored backend choice and the
// per-call vs tiled crossover for the batched similarity path. Replaces
// the first-match dispatch table (the bug class where avx512 would win on
// any machine that lists it, even where 512-bit downclocking makes AVX2
// faster) with an explicit, unit-testable scoring function over
// CpuCapabilities.
//
// Override seams, in precedence order:
//   1. force_policy(p)          — programmatic, wins until reset_policy();
//   2. H3DFACT_KERNEL_POLICY=   — environment: "auto" | "percall" | "tiled".
//      Unknown values throw by name (a typo must not silently become auto);
//   3. the built-in measured defaults (the crossover table in
//      docs/kernels.md).
//
// The policy never affects results — every backend and both tile shapes
// are bit-identical by contract — only which code runs. That is what makes
// the override seams safe to flip in CI matrices.

#include <cstddef>
#include <string_view>
#include <vector>

#include "hdc/kernels/capability.hpp"

namespace h3dfact::hdc::kernels {

struct KernelBackend;

/// How the batched similarity path shapes its loops.
enum class TileMode {
  kAuto,     ///< measured crossover: per-call below the batch threshold
  kPerCall,  ///< always query-major (one pass over the codebook per query)
  kTiled,    ///< always row-blocked (a row tile stays L1-hot across queries)
};

/// The tuning knobs the kernel layer consults per call. Defaults are the
/// measured table from docs/kernels.md (AVX2 dev host, dim 1024): the tiled
/// path overtakes per-call at batch 4.
struct KernelPolicy {
  TileMode tile_mode = TileMode::kAuto;
  /// Batch size (query count) at or above which kAuto picks the tiled path.
  std::size_t tile_crossover_batch = 4;
};

/// The policy every kernel call consults: a force_policy() override if one
/// is set, else the H3DFACT_KERNEL_POLICY resolution (cached on first use;
/// an unknown value throws out of every call rather than falling back).
[[nodiscard]] const KernelPolicy& active_policy();

/// Programmatic override of active_policy() (crossover sweeps, tests).
void force_policy(const KernelPolicy& policy);

/// Drop the force_policy() override; env/default resolution applies again.
void reset_policy();

/// Parse an H3DFACT_KERNEL_POLICY value ("auto" | "percall" | "tiled").
/// Throws std::runtime_error naming the value on anything else. Exposed so
/// tests cover the resolution rules without mutating the environment.
[[nodiscard]] KernelPolicy parse_policy(std::string_view spec);

/// Whether a batched similarity call over `batch` queries takes the tiled
/// path under `policy` (the kAuto crossover rule made testable).
[[nodiscard]] bool use_tiled(const KernelPolicy& policy, std::size_t batch);

/// Capability score of a backend name against a capability set. Higher
/// wins; 0 means "cannot run here". The ordering encodes the measured
/// ranking, not just vector width: avx512 outranks avx2 only when the CPU
/// has hardware popcount (avx512vpopcntdq) — the 512-bit LUT-popcount
/// fallback is AVX2-class throughput with downclock risk, so plain
/// avx512f/bw scores *below* avx2.
[[nodiscard]] int score_backend(std::string_view name,
                                const CpuCapabilities& caps);

/// The highest-scoring backend among `candidates` for `caps`; nullptr when
/// none can run (never happens with scalar present). Ties break toward the
/// earlier candidate so the ordering of available() stays authoritative.
[[nodiscard]] const KernelBackend* select_backend(
    const std::vector<const KernelBackend*>& candidates,
    const CpuCapabilities& caps);

}  // namespace h3dfact::hdc::kernels
