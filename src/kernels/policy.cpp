#include "mdtask/kernels/policy.h"

#include <cstdlib>

namespace mdtask::kernels {

const char* to_string(KernelPolicy policy) noexcept {
  switch (policy) {
    case KernelPolicy::kScalar: return "scalar";
    case KernelPolicy::kVectorized: return "vectorized";
  }
  return "unknown";
}

std::optional<KernelPolicy> parse_policy(std::string_view name) noexcept {
  if (name == "scalar") return KernelPolicy::kScalar;
  if (name == "vectorized") return KernelPolicy::kVectorized;
  return std::nullopt;
}

KernelPolicy default_policy() noexcept {
  static const KernelPolicy policy = [] {
    if (const char* env = std::getenv("MDTASK_KERNEL_POLICY")) {
      if (auto parsed = parse_policy(env)) return *parsed;
    }
    return KernelPolicy::kVectorized;
  }();
  return policy;
}

}  // namespace mdtask::kernels
