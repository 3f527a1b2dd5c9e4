// Kernel implementation policy for the hot analysis kernels.
//
// Every batch kernel in mdtask::kernels ships two tiers:
//  * kScalar     — the original per-pair double loop, kept as the
//                  reference (the oracle the fast tier is tested
//                  against); bit-identical to the seed code paths.
//  * kVectorized — the fast tier: SoA lanes the compiler vectorizes
//                  (16 single-precision accumulator lanes, drained into
//                  doubles periodically). Reductions and predicates are
//                  exact: the float lanes only filter, and every value
//                  that can decide the result is recomputed with the
//                  scalar tier's double expression in its summation
//                  order. Hausdorff distances and cutoff pair lists are
//                  therefore bit-identical to kScalar. rmsd2d, where
//                  every cell is an output, keeps its float lanes and
//                  agrees with kScalar to ~1e-6 relative.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace mdtask::kernels {

enum class KernelPolicy { kScalar = 0, kVectorized = 1 };

/// Number of policies; sized for per-policy calibration arrays.
inline constexpr std::size_t kPolicyCount = 2;

/// All policies in enum order (for sweeps in tests and benches).
inline constexpr KernelPolicy kAllPolicies[kPolicyCount] = {
    KernelPolicy::kScalar, KernelPolicy::kVectorized};

const char* to_string(KernelPolicy policy) noexcept;

/// Parses "scalar" / "vectorized" (case-sensitive).
std::optional<KernelPolicy> parse_policy(std::string_view name) noexcept;

/// Process-wide default: the MDTASK_KERNEL_POLICY environment variable
/// when set to a valid policy name, otherwise kVectorized (the fast tier,
/// exact wherever kScalar is the oracle: Hausdorff and cutoff results
/// are bit-identical). Read once per process.
KernelPolicy default_policy() noexcept;

}  // namespace mdtask::kernels
