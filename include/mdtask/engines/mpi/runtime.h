// In-process MPI-style message-passing runtime.
//
// The paper's baseline implementations use mpi4py; this runtime provides
// the same SPMD programming model inside one process: run_spmd() launches
// one thread per rank, each executing the same function, communicating
// via typed point-to-point messages and collectives (Bcast, Gather,
// Reduce, Allreduce, Scatter, Barrier, Alltoall).
//
// Two broadcast algorithms are provided — linear (root sends to each
// rank, cost growing linearly with P, the behaviour the paper observes
// for MPI in Fig. 8) and binomial tree — selectable per communicator for
// the ablation bench. Per-rank traffic statistics are recorded so benches
// can report measured communication volumes.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::mpi {

/// Broadcast algorithm selection (ablation: Fig. 8 / bench_ablations).
enum class BcastAlgorithm { kLinear, kBinomialTree };

/// Per-rank communication counters, aggregated by run_spmd.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;

  void merge(const CommStats& other) noexcept {
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_received += other.messages_received;
    bytes_received += other.bytes_received;
  }
};

namespace detail {
class World;  // shared mailboxes + barrier state

/// Probes a mailbox without blocking; used by RecvRequest::test().
bool world_try_collect(World& world, int dest, int source, int tag,
                       std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> world_collect(World& world, int dest, int source,
                                        int tag);
}  // namespace detail

class Communicator;

/// Handle to a posted nonblocking receive (MPI_Irecv analogue). wait()
/// blocks for the message; test() polls. Single-consumer: call wait()
/// or a successful test() exactly once.
template <typename T>
class RecvRequest {
 public:
  /// True once the message has arrived (and retrieves it).
  bool test();
  /// Blocks until the message arrives and returns the payload.
  std::vector<T> wait();

 private:
  friend class Communicator;
  RecvRequest(detail::World* world, int dest, int source, int tag)
      : world_(world), dest_(dest), source_(source), tag_(tag) {}

  detail::World* world_;
  int dest_;
  int source_;
  int tag_;
  bool done_ = false;
  std::vector<T> payload_;
};

/// A rank's handle to the communicator. Each rank's function receives its
/// own Communicator; all methods are callable only from that rank's
/// thread (standard MPI usage).
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }

  /// Raw point-to-point: blocking send / blocking matched receive.
  void send_bytes(int dest, int tag, std::vector<std::uint8_t> data);
  std::vector<std::uint8_t> recv_bytes(int source, int tag);

  /// Typed convenience wrappers over trivially copyable element vectors.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
    send_bytes(dest, tag, std::vector<std::uint8_t>(p, p + data.size_bytes()));
  }
  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = recv_bytes(source, tag);
    std::vector<T> out(bytes.size() / sizeof(T));
    // An empty vector's data() may be null, which memcpy must not get.
    if (!out.empty()) {
      std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
    }
    return out;
  }

  /// Combined exchange with one peer (MPI_Sendrecv analogue): ships
  /// `data` to `dest` and blocks for the matching message from
  /// `source`. Deadlock-free regardless of call order because sends are
  /// buffered mailbox deposits — both peers may issue their sendrecv
  /// simultaneously, the neighbour-exchange idiom of the repex
  /// nearest-neighbour rounds.
  template <typename T>
  std::vector<T> sendrecv(int dest, int source, int tag,
                          std::span<const T> data) {
    send<T>(dest, tag, data);
    return recv<T>(source, tag);
  }

  /// Buffered nonblocking send (MPI_Ibsend analogue): the payload is
  /// delivered to the destination mailbox immediately, so the "request"
  /// completes at once; provided for source-code symmetry with irecv.
  template <typename T>
  void isend(int dest, int tag, std::span<const T> data) {
    send<T>(dest, tag, data);
  }

  /// Posts a nonblocking receive; the returned request can be tested or
  /// waited on while the rank does other work (communication/compute
  /// overlap).
  template <typename T>
  RecvRequest<T> irecv(int source, int tag) {
    return RecvRequest<T>(world_, rank_, source, tag);
  }

  /// Blocks until every rank has entered the barrier.
  void barrier();

  /// Broadcasts `data` from root to all ranks (in place on non-roots).
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("bcast");
    bcast_bytes_typed(data, root);
  }

  /// Gathers each rank's buffer to root; root receives size() buffers in
  /// rank order, other ranks receive an empty result. (MPI_Gatherv.)
  template <typename T>
  std::vector<std::vector<T>> gather(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("gather");
    std::vector<std::vector<T>> out;
    if (rank_ == root) {
      out.resize(static_cast<std::size_t>(size_));
      out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
      for (int r = 0; r < size_; ++r) {
        if (r == root) continue;
        out[static_cast<std::size_t>(r)] = recv<T>(r, kGatherTag);
      }
    } else {
      send<T>(root, kGatherTag, mine);
    }
    return out;
  }

  /// Scatters `parts` (root-only, one per rank) and returns this rank's
  /// part. (MPI_Scatterv.)
  template <typename T>
  std::vector<T> scatter(const std::vector<std::vector<T>>& parts, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("scatter");
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r) {
        if (r == root) continue;
        send<T>(r, kScatterTag, parts[static_cast<std::size_t>(r)]);
      }
      return parts[static_cast<std::size_t>(root)];
    }
    return recv<T>(root, kScatterTag);
  }

  /// Element-wise reduce of equal-length vectors to root with `op`.
  template <typename T, typename Op>
  std::vector<T> reduce(std::vector<T> mine, int root, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("reduce");
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r) {
        if (r == root) continue;
        const auto theirs = recv<T>(r, kReduceTag);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          mine[i] = op(mine[i], theirs[i]);
        }
      }
      return mine;
    }
    send<T>(root, kReduceTag, std::span<const T>(mine));
    return {};
  }

  /// Allreduce = reduce to rank 0 + bcast. Every rank gets the result.
  template <typename T, typename Op>
  std::vector<T> allreduce(std::vector<T> mine, Op op) {
    auto span = collective_span("allreduce");
    auto result = reduce(std::move(mine), 0, op);
    bcast(result, 0);
    return result;
  }

  /// Allgather: every rank contributes a buffer and receives all ranks'
  /// buffers in rank order (gather to rank 0 + broadcast of the
  /// flattened payload and per-rank counts).
  template <typename T>
  std::vector<std::vector<T>> allgather(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("allgather");
    auto gathered = gather<T>(mine, 0);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(size_), 0);
    std::vector<T> flat;
    if (rank_ == 0) {
      for (std::size_t r = 0; r < gathered.size(); ++r) {
        counts[r] = gathered[r].size();
        flat.insert(flat.end(), gathered[r].begin(), gathered[r].end());
      }
    }
    bcast(counts, 0);
    bcast(flat, 0);
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size_));
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r].assign(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
                    flat.begin() +
                        static_cast<std::ptrdiff_t>(cursor + counts[r]));
      cursor += static_cast<std::size_t>(counts[r]);
    }
    return out;
  }

  /// All-to-all personalized exchange: send[i] goes to rank i; returns
  /// the buffers received from every rank (the shuffle primitive).
  template <typename T>
  std::vector<std::vector<T>> alltoall(
      const std::vector<std::vector<T>>& send_parts) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = collective_span("alltoall");
    std::vector<std::vector<T>> out(static_cast<std::size_t>(size_));
    out[static_cast<std::size_t>(rank_)] =
        send_parts[static_cast<std::size_t>(rank_)];
    // Pairwise XOR exchange rounds avoid head-of-line blocking deadlock.
    // Rounds run to the next power of two so every pair (i, j) meets at
    // round i ^ j even for non-power-of-two communicator sizes.
    int rounds = 1;
    while (rounds < size_) rounds <<= 1;
    for (int round = 1; round < rounds; ++round) {
      const int peer = rank_ ^ round;
      if (peer >= size_) continue;
      if (rank_ < peer) {
        send<T>(peer, kAlltoallTag + round,
                std::span<const T>(send_parts[static_cast<std::size_t>(peer)]));
        out[static_cast<std::size_t>(peer)] =
            recv<T>(peer, kAlltoallTag + round);
      } else {
        out[static_cast<std::size_t>(peer)] =
            recv<T>(peer, kAlltoallTag + round);
        send<T>(peer, kAlltoallTag + round,
                std::span<const T>(send_parts[static_cast<std::size_t>(peer)]));
      }
    }
    return out;
  }

  /// Communication counters for this rank so far.
  const CommStats& stats() const noexcept { return stats_; }

 private:
  friend struct SpmdRunner;
  Communicator(detail::World* world, int rank, int size,
               BcastAlgorithm bcast_algorithm)
      : world_(world),
        rank_(rank),
        size_(size),
        bcast_algorithm_(bcast_algorithm) {}

  static constexpr int kGatherTag = -2;
  static constexpr int kScatterTag = -3;
  static constexpr int kReduceTag = -4;
  static constexpr int kBcastTag = -5;
  static constexpr int kAlltoallTag = 1 << 20;

  template <typename T>
  void bcast_bytes_typed(std::vector<T>& data, int root);

  /// An RAII span on this rank's track for one collective call; inert
  /// when the runner was launched without a tracer.
  trace::Span collective_span(const char* name) {
    if (tracer_ == nullptr) return trace::Span();
    return tracer_->span(track_, name, "collective");
  }

  detail::World* world_;
  int rank_;
  int size_;
  BcastAlgorithm bcast_algorithm_;
  CommStats stats_;
  trace::Tracer* tracer_ = nullptr;  ///< set by SpmdRunner before launch
  trace::Track track_{};
};

/// Result of an SPMD run: per-rank stats plus any rank error.
struct SpmdReport {
  std::vector<CommStats> rank_stats;
  CommStats total;
  /// Recovery accounting, filled by run_spmd_with_recovery only.
  int attempts = 1;                   ///< launches including the last
  std::uint64_t checkpoint_bytes = 0; ///< bytes put() into the store
  double checkpoint_write_s = 0.0;    ///< modeled write cost (alpha-beta)
  double checkpoint_restore_s = 0.0;  ///< modeled restore cost
};

/// Launches `ranks` threads each running `body(comm)`. Blocks until all
/// complete. Exceptions thrown by a rank propagate (first one wins).
/// Returns per-rank communication statistics. With a tracer, each run
/// registers an "mpi" process track with one "rank-<r>" thread per rank
/// carrying a whole-rank span plus spans for every collective call.
SpmdReport run_spmd(int ranks, const std::function<void(Communicator&)>& body,
                    BcastAlgorithm bcast = BcastAlgorithm::kBinomialTree,
                    trace::Tracer* tracer = nullptr);

/// Body of a recoverable SPMD job: receives the communicator plus the
/// job's checkpoint store, which persists across restart attempts —
/// work put() there before an abort can be skipped after the relaunch.
using RecoverableSpmdBody =
    std::function<void(Communicator&, fault::CheckpointStore&)>;

/// MPI-style checkpoint/abort/restart under a fault plan: there is no
/// per-task recovery in MPI, so a fail-stop fault on ANY rank aborts the
/// whole job (MPI_Abort semantics) and the wrapper relaunches it from
/// the last checkpoint, bounded by plan.retry.max_attempts with
/// exponential backoff between attempts.
///
/// Deadlock safety: every rank evaluates the same pure fault predicate
/// before entering the body, so on a doomed attempt the faulty rank
/// throws and every other rank returns before reaching any collective —
/// no rank is ever left blocked in a collective waiting for a dead peer.
/// Slowdown faults (stragglers, FS stalls) only delay their rank.
///
/// Throws InjectedFault when the restart budget is exhausted.
///
/// `checkpoint_costs` (optional, not owned) applies a calibrated
/// alpha-beta shared-filesystem model to the job's CheckpointStore;
/// modeled write/restore seconds and stored bytes are reported in the
/// returned SpmdReport. MPI is the rigid baseline: any pool shrink is a
/// job abort + restart from the last checkpoint, which is exactly the
/// path this wrapper prices.
SpmdReport run_spmd_with_recovery(
    int ranks, const RecoverableSpmdBody& body, const fault::FaultPlan& plan,
    fault::RecoveryLog* recovery_log = nullptr,
    BcastAlgorithm bcast = BcastAlgorithm::kBinomialTree,
    trace::Tracer* tracer = nullptr,
    const fault::CheckpointCostModel* checkpoint_costs = nullptr);

// ---- template implementation ----

template <typename T>
void Communicator::bcast_bytes_typed(std::vector<T>& data, int root) {
  // Size first so non-roots can allocate (mirrors MPI_Bcast contracts
  // where counts must agree; we transfer the count for convenience).
  std::uint64_t count = data.size();
  if (bcast_algorithm_ == BcastAlgorithm::kLinear) {
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r) {
        if (r == root) continue;
        send<std::uint64_t>(r, kBcastTag, std::span<const std::uint64_t>(&count, 1));
        send<T>(r, kBcastTag, std::span<const T>(data));
      }
    } else {
      count = recv<std::uint64_t>(root, kBcastTag)[0];
      data = recv<T>(root, kBcastTag);
    }
    return;
  }
  // Binomial tree rooted at `root`: relabel ranks relative to root.
  const int vrank = (rank_ - root + size_) % size_;
  int mask = 1;
  // Receive phase: find parent.
  while (mask < size_) {
    if (vrank & mask) {
      const int parent = ((vrank ^ mask) + root) % size_;
      count = recv<std::uint64_t>(parent, kBcastTag)[0];
      data = recv<T>(parent, kBcastTag);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size_) {
      const int child = ((vrank | mask) + root) % size_;
      send<std::uint64_t>(child, kBcastTag, std::span<const std::uint64_t>(&count, 1));
      send<T>(child, kBcastTag, std::span<const T>(data));
    }
    mask >>= 1;
  }
}

template <typename T>
bool RecvRequest<T>::test() {
  if (done_) return true;
  std::vector<std::uint8_t> bytes;
  if (!detail::world_try_collect(*world_, dest_, source_, tag_, bytes)) {
    return false;
  }
  payload_.resize(bytes.size() / sizeof(T));
  std::memcpy(payload_.data(), bytes.data(), payload_.size() * sizeof(T));
  done_ = true;
  return true;
}

template <typename T>
std::vector<T> RecvRequest<T>::wait() {
  if (!done_) {
    const auto bytes = detail::world_collect(*world_, dest_, source_, tag_);
    payload_.resize(bytes.size() / sizeof(T));
    std::memcpy(payload_.data(), bytes.data(),
                payload_.size() * sizeof(T));
    done_ = true;
  }
  return std::move(payload_);
}

}  // namespace mdtask::mpi
