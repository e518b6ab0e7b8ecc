// The traced run's in-process layer replay: the generated operation stream
// goes through each layer's public functions on its own, timing each call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/cluster_config.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace perfbench {

/// Replays the first 4000 of `ops` through store::make_engine, server::Wal,
/// the net frame codec, the bare causal protocols of a 3-site in-memory
/// cluster and server::ProtocolEngine, appending one span per timed call to `spans`
/// (ids from `*next_id`). The WAL replay writes under `data_dir` and
/// removes what it wrote. Returns the per-layer figures.
ccpr::util::Json replay_layers(const ccpr::server::ClusterConfig& cfg,
                               const WorkloadSpec& spec,
                               const std::vector<Op>& ops,
                               const std::string& data_dir,
                               std::vector<Span>* spans,
                               std::uint64_t* next_id);

}  // namespace perfbench
