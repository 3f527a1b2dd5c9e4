#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RADICAL-Pilot";
  }
  return "?";
}

}  // namespace mdtask::workflows
