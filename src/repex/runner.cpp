#include "mdtask/repex/runner.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>

#include "mdtask/common/serial.h"
#include "mdtask/common/timer.h"
#include "mdtask/workflows/engine_session.h"

namespace mdtask::repex {
namespace {

using workflows::EngineKind;

/// Driver-side round bookkeeping shared by the four engine paths: the
/// slot -> configuration permutation, the acceptance trajectory, the
/// ExchangeRecord log entries and the per-round trace counters. Only
/// the driver thread (or MPI rank 0) touches it.
struct Driver {
  const RepexConfig& config;
  std::vector<std::size_t> configs;  ///< slot -> configuration id
  RepexResult result;
  trace::Track track{};

  explicit Driver(const RepexConfig& c) : config(c) {
    configs.resize(c.params.replicas);
    std::iota(configs.begin(), configs.end(), std::size_t{0});
    if (config.tracer != nullptr) {
      track = workflows::EngineSession::driver_track(*config.tracer);
    }
  }

  double now_us() const {
    return config.tracer != nullptr ? config.tracer->now_us() : 0.0;
  }

  /// Records, counts and applies one round's decision stream.
  void finish_round(std::size_t round,
                    const std::vector<ExchangeDecision>& decisions,
                    double barrier_s) {
    std::uint64_t accepted = 0;
    for (const auto& d : decisions) {
      if (config.recovery_log != nullptr) {
        config.recovery_log->record_exchange({round, d.slot_lo, d.slot_hi,
                                              d.config_lo, d.config_hi,
                                              d.accepted, now_us()});
      }
      if (d.accepted) ++accepted;
    }
    result.attempted += decisions.size();
    result.accepted += accepted;
    const double rate = decisions.empty()
                            ? 0.0
                            : static_cast<double>(accepted) /
                                  static_cast<double>(decisions.size());
    result.acceptance_trajectory.push_back(rate);
    result.barrier_wait_s += barrier_s;
    apply_exchanges(configs, decisions);
    if (config.tracer != nullptr) {
      config.tracer->counter(track, "repex:acceptance", now_us(), rate);
      config.tracer->counter(track, "repex:barrier_wait_us", now_us(),
                             barrier_s * 1e6);
    }
  }

  bool converged() const {
    return acceptance_converged(config.params,
                                result.acceptance_trajectory);
  }

  /// Fills the permutation/convergence summary after the round loop.
  RepexResult take() {
    result.rounds = result.acceptance_trajectory.size();
    result.converged = converged();
    result.final_configs = configs;
    return std::move(result);
  }
};

/// config -> slot inverse of the slot -> config permutation.
std::vector<std::size_t> slots_of(const std::vector<std::size_t>& configs) {
  std::vector<std::size_t> inverse(configs.size());
  for (std::size_t slot = 0; slot < configs.size(); ++slot) {
    inverse[configs[slot]] = slot;
  }
  return inverse;
}

// ---- Spark: cached static state + barrier-stage shuffle exchange ----

/// The cached static replica state: one element (and one partition) per
/// configuration.
struct BaseState {
  std::size_t config = 0;
  double base = 0.0;
};

/// One side of a candidate pair, shuffled to its pair's reduce
/// partition.
struct PairHalf {
  std::size_t slot = 0;
  std::size_t config = 0;
  double energy = 0.0;
};

/// reduce_by_key accumulator: the one-or-two halves of a pair seen so
/// far. Merge order is shuffle-arrival order, so the decision map
/// normalises lo/hi by slot.
struct PairAcc {
  PairHalf a{};
  PairHalf b{};
  int n = 0;
};

RepexResult run_repex_spark(workflows::EngineSession& session,
                            const RepexConfig& config) {
  const RepexParams p = config.params;
  spark::SparkContext& sc = session.spark();
  Driver driver(config);
  WallTimer timer;

  // The static replica state, one partition per configuration so the
  // cache serves per-replica slots. With cache_static off, every
  // round's action recomputes these bases through the lineage — the
  // measured cost of Spark minus its caching advantage.
  std::vector<std::size_t> ids(p.replicas);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  auto bases = sc.parallelize(std::move(ids), p.replicas)
                   .map([p](const std::size_t& c) {
                     return BaseState{c, base_observable(p, c)};
                   });
  if (config.cache_static) bases.cache();

  for (std::size_t round = 0; round < p.max_rounds; ++round) {
    trace::Span round_span;
    if (config.tracer != nullptr) {
      round_span =
          config.tracer->span(driver.track, "repex:round", "repex");
      round_span.arg_num("round", static_cast<double>(round));
    }
    // Stage 1: per-replica advance on top of the (possibly cached)
    // static state.
    auto energies = bases
                        .map([p, round](const BaseState& b) {
                          return PairHalf{0, b.config,
                                          b.base +
                                              round_delta(p, b.config,
                                                          round)};
                        })
                        .collect();
    const auto slot_of = slots_of(driver.configs);
    for (auto& e : energies) e.slot = slot_of[e.config];
    driver.result.final_energies.assign(p.replicas, 0.0);
    for (const auto& e : energies) {
      driver.result.final_energies[e.slot] = e.energy;
    }

    // Stage 2: the exchange barrier — key every slot by its candidate
    // pairs and shuffle both halves to one reduce partition, where the
    // Metropolis verdict is computed. reduce_by_key cuts the stage
    // boundary, so this is a genuine barrier-stage shuffle.
    const auto pairs = candidate_pairs(p.topology, p.replicas, round);
    std::vector<std::pair<std::uint64_t, PairAcc>> halves;
    for (const auto& e : energies) {
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        if (pairs[idx].lo != e.slot && pairs[idx].hi != e.slot) continue;
        halves.emplace_back(idx, PairAcc{e, PairHalf{}, 1});
      }
    }
    WallTimer barrier_timer;
    auto keyed = sc.parallelize(std::move(halves), p.replicas);
    auto merged = spark::reduce_by_key(
        keyed,
        [](PairAcc x, const PairAcc& y) {
          x.b = y.a;
          x.n = 2;
          return x;
        },
        std::max<std::size_t>(1, config.workers));
    auto raw = merged
                   .map([p, round](const std::pair<std::uint64_t, PairAcc>&
                                       kv) {
                     const PairHalf& lo =
                         kv.second.a.slot < kv.second.b.slot ? kv.second.a
                                                             : kv.second.b;
                     const PairHalf& hi =
                         kv.second.a.slot < kv.second.b.slot ? kv.second.b
                                                             : kv.second.a;
                     auto decision = decide_pair(p, round, lo.slot, hi.slot,
                                                 lo.energy, hi.energy);
                     decision.config_lo = lo.config;
                     decision.config_hi = hi.config;
                     return decision;
                   })
                   .collect();
    const double barrier_s = barrier_timer.seconds();
    driver.finish_round(round, greedy_filter(std::move(raw)), barrier_s);
    if (driver.converged()) break;
  }

  auto result = driver.take();
  result.metrics = session.metrics(timer.seconds());
  return result;
}

// ---- Dask: persistent bases + per-round dynamic graph ----

RepexResult run_repex_dask(workflows::EngineSession& session,
                           const RepexConfig& config) {
  const RepexParams p = config.params;
  dask::DaskClient& client = session.dask();
  Driver driver(config);
  WallTimer timer;

  // The static replica state persists as futures pinned in the graph
  // (dask.persist): computed once, referenced by every round's
  // re-submitted tasks.
  std::vector<dask::Future<double>> bases;
  bases.reserve(p.replicas);
  for (std::size_t c = 0; c < p.replicas; ++c) {
    bases.push_back(
        client.submit([p, c] { return base_observable(p, c); }));
  }

  for (std::size_t round = 0; round < p.max_rounds; ++round) {
    trace::Span round_span;
    if (config.tracer != nullptr) {
      round_span =
          config.tracer->span(driver.track, "repex:round", "repex");
      round_span.arg_num("round", static_cast<double>(round));
    }
    // Dynamic-graph re-submission: a fresh energy task per replica
    // depending on its base future...
    std::vector<dask::Future<double>> energies;
    energies.reserve(p.replicas);
    for (std::size_t c = 0; c < p.replicas; ++c) {
      energies.push_back(client.submit(
          [p, c, round](const double& base) {
            return base + round_delta(p, c, round);
          },
          bases[c]));
    }
    // ...and a fresh decision task per candidate pair depending on the
    // two member energies — the exchange runs inside the graph.
    const auto pairs = candidate_pairs(p.topology, p.replicas, round);
    std::vector<dask::Future<ExchangeDecision>> decided;
    decided.reserve(pairs.size());
    for (const auto& pair : pairs) {
      decided.push_back(client.submit(
          [p, round, pair](const double& energy_lo,
                           const double& energy_hi) {
            return decide_pair(p, round, pair.lo, pair.hi, energy_lo,
                               energy_hi);
          },
          energies[driver.configs[pair.lo]],
          energies[driver.configs[pair.hi]]));
    }
    WallTimer barrier_timer;
    std::vector<ExchangeDecision> raw;
    raw.reserve(decided.size());
    for (const auto& f : decided) raw.push_back(f.get());
    const double barrier_s = barrier_timer.seconds();
    for (auto& decision : raw) {
      decision.config_lo = driver.configs[decision.slot_lo];
      decision.config_hi = driver.configs[decision.slot_hi];
    }
    driver.result.final_energies.assign(p.replicas, 0.0);
    for (std::size_t slot = 0; slot < p.replicas; ++slot) {
      driver.result.final_energies[slot] =
          energies[driver.configs[slot]].get();
    }
    driver.finish_round(round, greedy_filter(std::move(raw)), barrier_s);
    if (driver.converged()) break;
  }

  auto result = driver.take();
  result.metrics = session.metrics(timer.seconds());
  return result;
}

// ---- MPI: rank-local state, sendrecv/allreduce exchange rounds ----

RepexResult run_repex_mpi(workflows::EngineSession& session,
                          const RepexConfig& config) {
  const RepexParams p = config.params;
  Driver driver(config);
  WallTimer timer;

  auto body = [&](mpi::Communicator& comm, fault::CheckpointStore& store) {
    const int rank = comm.rank();
    const int size = comm.size();
    std::vector<std::size_t> configs(p.replicas);
    std::iota(configs.begin(), configs.end(), std::size_t{0});
    std::size_t start_round = 0;
    // Checkpoint/restart: a relaunched attempt resumes at the round
    // after the last rank-0 put() (rounds before it were already
    // recorded by the aborted attempt).
    if (store.contains("repex/state")) {
      const auto bytes = store.get("repex/state");
      ByteReader reader(bytes);
      auto saved = reader.get_vector<std::uint64_t>();
      if (saved.ok() && saved.value().size() == p.replicas + 1) {
        start_round = saved.value()[0];
        for (std::size_t s = 0; s < p.replicas; ++s) {
          configs[s] = saved.value()[s + 1];
        }
      }
    }
    // Rank-local static replica state, computed once and held across
    // rounds (the SPMD twin of Spark's cached RDD).
    std::vector<double> base(p.replicas, 0.0);
    for (std::size_t c = static_cast<std::size_t>(rank); c < p.replicas;
         c += static_cast<std::size_t>(size)) {
      base[c] = base_observable(p, c);
    }
    std::vector<double> acceptance;

    for (std::size_t round = start_round; round < p.max_rounds; ++round) {
      trace::Span round_span;
      if (rank == 0 && config.tracer != nullptr) {
        round_span =
            config.tracer->span(driver.track, "repex:round", "repex");
        round_span.arg_num("round", static_cast<double>(round));
      }
      const auto slot_of = slots_of(configs);
      std::vector<double> energy_by_slot(p.replicas, 0.0);
      for (std::size_t c = static_cast<std::size_t>(rank); c < p.replicas;
           c += static_cast<std::size_t>(size)) {
        energy_by_slot[slot_of[c]] = base[c] + round_delta(p, c, round);
      }

      WallTimer barrier_timer;
      const auto pairs = candidate_pairs(p.topology, p.replicas, round);
      std::vector<ExchangeDecision> decisions;
      if (p.topology == ExchangeTopology::kAllPairs) {
        // All-pairs: allreduce the masked per-slot table (owners hold
        // their slots, zeros elsewhere), then every rank evaluates the
        // identical pure decision stream.
        auto full = comm.allreduce(energy_by_slot,
                                   [](double a, double b) { return a + b; });
        decisions = decide_exchanges(p, round, configs, full);
        energy_by_slot = std::move(full);
      } else {
        // Nearest-neighbour: the owner of each pair's lower
        // configuration exchanges boundary energies with the partner's
        // owner via sendrecv and decides; the per-rank decision slices
        // are then allgathered so every rank applies the same swaps.
        std::vector<ExchangeDecision> mine;
        for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
          const auto& pair = pairs[idx];
          const int owner_lo =
              static_cast<int>(configs[pair.lo] % static_cast<std::size_t>(
                                                      size));
          const int owner_hi =
              static_cast<int>(configs[pair.hi] % static_cast<std::size_t>(
                                                      size));
          const int tag = static_cast<int>(idx);
          if (owner_lo == owner_hi) {
            if (rank != owner_lo) continue;
            auto decision =
                decide_pair(p, round, pair.lo, pair.hi,
                            energy_by_slot[pair.lo],
                            energy_by_slot[pair.hi]);
            decision.config_lo = configs[pair.lo];
            decision.config_hi = configs[pair.hi];
            mine.push_back(decision);
          } else if (rank == owner_lo) {
            const double half = energy_by_slot[pair.lo];
            auto got = comm.sendrecv<double>(owner_hi, owner_hi, tag,
                                             std::span(&half, 1));
            auto decision = decide_pair(p, round, pair.lo, pair.hi, half,
                                        got[0]);
            decision.config_lo = configs[pair.lo];
            decision.config_hi = configs[pair.hi];
            mine.push_back(decision);
          } else if (rank == owner_hi) {
            const double half = energy_by_slot[pair.hi];
            comm.sendrecv<double>(owner_lo, owner_lo, tag,
                                  std::span(&half, 1));
          }
        }
        auto gathered = comm.allgather<ExchangeDecision>(mine);
        for (auto& part : gathered) {
          decisions.insert(decisions.end(), part.begin(), part.end());
        }
        decisions = greedy_filter(std::move(decisions));
        // Report collective: rank 0 needs the full table for the
        // result's final_energies (monitoring, not exchange).
        energy_by_slot = comm.allreduce(
            std::move(energy_by_slot),
            [](double a, double b) { return a + b; });
      }
      const double barrier_s = barrier_timer.seconds();

      if (rank == 0) {
        driver.result.final_energies = energy_by_slot;
        driver.finish_round(round, decisions, barrier_s);
      }
      apply_exchanges(configs, decisions);
      std::uint64_t accepted = 0;
      for (const auto& d : decisions) accepted += d.accepted ? 1 : 0;
      acceptance.push_back(decisions.empty()
                               ? 0.0
                               : static_cast<double>(accepted) /
                                     static_cast<double>(decisions.size()));
      if (rank == 0) {
        ByteWriter writer;
        std::vector<std::uint64_t> saved;
        saved.reserve(p.replicas + 1);
        saved.push_back(round + 1);
        for (const std::size_t c : configs) saved.push_back(c);
        writer.put_span<std::uint64_t>(saved);
        store.put("repex/state", std::move(writer).take());
      }
      // Every rank evaluates the identical pure convergence test, so
      // nobody is left waiting in a collective after an early exit.
      if (acceptance_converged(p, acceptance)) break;
    }
  };

  session.spmd(body);

  auto result = driver.take();
  result.metrics = session.metrics(timer.seconds());
  result.metrics.tasks = p.replicas * result.rounds;
  return result;
}

// ---- RP: DB-mediated dispatch, bases staged through the filesystem ----

RepexResult run_repex_rp(workflows::EngineSession& session,
                         const RepexConfig& config) {
  const RepexParams p = config.params;
  rp::UnitManager& um = session.rp();
  Driver driver(config);
  WallTimer timer;

  const auto base_path = [](std::size_t c) {
    return "repex/base_" + std::to_string(c) + ".bin";
  };
  const auto energy_path = [](std::size_t round, std::size_t c) {
    return "repex/energy_r" + std::to_string(round) + "_c" +
           std::to_string(c) + ".bin";
  };

  for (std::size_t round = 0; round < p.max_rounds; ++round) {
    trace::Span round_span;
    if (config.tracer != nullptr) {
      round_span =
          config.tracer->span(driver.track, "repex:round", "repex");
      round_span.arg_num("round", static_cast<double>(round));
    }
    // One compute unit per replica per round, dispatched through the
    // (latency-charged) DB. Round 0 writes the static base observable
    // to the shared filesystem; later rounds stage it back instead of
    // recomputing — RP's filesystem-mediated twin of Spark's cache.
    std::vector<rp::ComputeUnitDescription> descriptions;
    descriptions.reserve(p.replicas);
    for (std::size_t c = 0; c < p.replicas; ++c) {
      const std::string in_path = base_path(c);
      const std::string out_path = energy_path(round, c);
      descriptions.push_back(rp::ComputeUnitDescription{
          .name = "repex_r" + std::to_string(round) + "_c" +
                  std::to_string(c),
          .executable =
              [p, c, round, in_path, out_path](rp::SharedFilesystem& fs) {
                double base = 0.0;
                bool have_base = false;
                if (round > 0) {
                  auto bytes = fs.get(in_path);
                  if (bytes.ok()) {
                    ByteReader reader(bytes.value());
                    auto stored = reader.get_vector<double>();
                    if (stored.ok() && stored.value().size() == 1) {
                      base = stored.value()[0];
                      have_base = true;
                    }
                  }
                }
                if (!have_base) {
                  base = base_observable(p, c);
                  ByteWriter writer;
                  writer.put_span<double>(std::vector<double>{base});
                  fs.put(in_path, std::move(writer).take());
                }
                const double energy = base + round_delta(p, c, round);
                ByteWriter writer;
                writer.put_span<double>(std::vector<double>{energy});
                fs.put(out_path, std::move(writer).take());
              },
          .input_staging =
              round > 0 ? std::vector<std::string>{in_path}
                        : std::vector<std::string>{},
          .output_staging = {out_path}});
    }
    WallTimer barrier_timer;
    um.submit_units(std::move(descriptions));
    um.wait_units();
    const double barrier_s = barrier_timer.seconds();

    std::vector<double> energy_by_config(p.replicas, 0.0);
    for (std::size_t c = 0; c < p.replicas; ++c) {
      bool have = false;
      auto bytes = um.filesystem().get(energy_path(round, c));
      if (bytes.ok()) {
        ByteReader reader(bytes.value());
        auto stored = reader.get_vector<double>();
        if (stored.ok() && stored.value().size() == 1) {
          energy_by_config[c] = stored.value()[0];
          have = true;
        }
      }
      if (!have) {
        // A unit whose retry budget ran out left no file: the driver
        // recomputes the (deterministic) observable so the decision
        // stream stays seed-exact under faults.
        energy_by_config[c] = replica_energy(p, c, round);
      }
    }
    std::vector<double> energy_by_slot(p.replicas, 0.0);
    for (std::size_t slot = 0; slot < p.replicas; ++slot) {
      energy_by_slot[slot] = energy_by_config[driver.configs[slot]];
    }
    driver.result.final_energies = energy_by_slot;
    driver.finish_round(
        round,
        decide_exchanges(p, round, driver.configs, energy_by_slot),
        barrier_s);
    if (driver.converged()) break;
  }

  auto result = driver.take();
  result.metrics = session.metrics(timer.seconds());
  return result;
}

}  // namespace

RepexResult run_repex(EngineKind engine, const RepexConfig& config) {
  trace::Span run_span = workflows::EngineSession::run_span(
      config.tracer, std::string("repex/") + workflows::to_string(engine));
  run_span.arg_num("replicas", static_cast<double>(config.params.replicas));
  run_span.arg_num("max_rounds",
                   static_cast<double>(config.params.max_rounds));
  // At most one MPI rank per replica: configuration c lives on rank
  // c % size for the whole run (real RepEx migrates the temperature,
  // not the configuration data).
  const std::size_t max_ranks =
      std::max<std::size_t>(1, config.params.replicas);
  workflows::EngineSession session(
      engine, config,
      {.db_roundtrip_latency_s = config.db_roundtrip_latency_s,
       .mpi_ranks = std::clamp<std::size_t>(config.workers, 1, max_ranks)});
  switch (engine) {
    case EngineKind::kMpi: return run_repex_mpi(session, config);
    case EngineKind::kSpark: return run_repex_spark(session, config);
    case EngineKind::kDask: return run_repex_dask(session, config);
    case EngineKind::kRp: return run_repex_rp(session, config);
  }
  return run_repex_mpi(session, config);
}

}  // namespace mdtask::repex
