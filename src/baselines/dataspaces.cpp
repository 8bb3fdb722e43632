#include "baselines/dataspaces.hpp"

#include "des/simulation.hpp"

namespace colza::baselines {

DataSpaces::DataSpaces(net::Network& net, Config config,
                       net::NodeId base_node)
    : net_(&net), config_(std::move(config)) {
  // The staging servers form a static MPI job (no elasticity possible).
  job_ = std::make_unique<simmpi::MpiJob>(net, config_.servers,
                                          config_.procs_per_node,
                                          config_.vendor, base_node);
  records_.resize(static_cast<std::size_t>(config_.servers));
  for (int s = 0; s < config_.servers; ++s) {
    auto state = std::make_unique<ServerState>();
    // Margo-style control plane on every server.
    state->engine = std::make_unique<rpc::Engine>(job_->process(s),
                                                  net::Profile::mona());
    state->world = nullptr;
    states_.push_back(std::move(state));
  }
  for (int s = 0; s < config_.servers; ++s) {
    ServerState* state = states_[static_cast<std::size_t>(s)].get();
    state->world = job_->world(s).dup();

    state->engine->define(
        "ds.put", [this, state](const rpc::RequestInfo&, InArchive& in,
                                OutArchive&) {
          std::string var;
          std::uint64_t version = 0, block_id = 0;
          net::BulkRef handle;
          in.load(var);
          in.load(version);
          in.load(block_id);
          in.load(handle);
          common::Bytes bytes;
          Status st = state->engine->rdma_pull(handle, 0, handle.size, bytes);
          if (!st.ok()) return st;
          // Store the raw object in the space; decoding happens when the
          // analysis gets it (ds.exec).
          state->space[var][version].push_back(std::move(bytes));
          return Status::Ok();
        });

    state->engine->define(
        "ds.exec", [this, s, state](const rpc::RequestInfo&, InArchive& in,
                                    OutArchive&) {
          std::string var;
          std::uint64_t version = 0;
          in.load(var);
          in.load(version);
          auto& sim = net_->sim();
          const des::Time t0 = sim.now();
          // dspaces_get: read every local blob of this version out of the
          // space and decode it, inside the measured analysis window.
          std::vector<vis::DataSet> blocks;
          if (state->space.count(var) != 0 &&
              state->space[var].count(version) != 0) {
            for (const auto& blob : state->space[var][version]) {
              blocks.push_back(sim.charge_scoped(
                  [&] { return vis::deserialize_dataset(blob); }));
            }
          }
          vis::MpiCommunicator comm(*state->world);
          auto r = catalyst::execute(config_.script, blocks, comm, state->fb,
                                     version);
          if (!r.has_value()) return r.status();
          Record rec;
          rec.version = version;
          rec.exec_time = sim.now() - t0;
          rec.blocks = blocks.size();
          records_[static_cast<std::size_t>(s)].push_back(rec);
          return Status::Ok();
        });

    state->engine->define("ds.drop", [state](const rpc::RequestInfo&,
                                             InArchive& in, OutArchive&) {
      std::string var;
      std::uint64_t version = 0;
      in.load(var);
      in.load(version);
      auto it = state->space.find(var);
      if (it != state->space.end()) it->second.erase(version);
      return Status::Ok();
    });
  }
}

std::vector<net::ProcId> DataSpaces::server_addresses() const {
  return job_->addresses();
}

Status DataSpaces::put(rpc::Engine& client, const std::string& var,
                       std::uint64_t version, std::uint64_t block_id,
                       std::span<const std::byte> data) {
  const auto target = static_cast<std::size_t>(
      block_id % static_cast<std::uint64_t>(config_.servers));
  net::BulkRef handle = client.process().expose(data);
  auto r = client.call_raw(job_->addresses()[target], "ds.put",
                           pack(var, version, block_id, handle));
  client.process().unexpose(handle);
  return r.status();
}

Status DataSpaces::exec(rpc::Engine& client, const std::string& var,
                        std::uint64_t version) {
  // Single trigger fanned out to every server; servers then coordinate via
  // their static MPI world inside the pipeline.
  auto& sim = client.process().sim();
  auto done = std::make_shared<des::Eventual<Status>>(sim);
  auto remaining = std::make_shared<int>(config_.servers);
  auto first = std::make_shared<Status>();
  for (net::ProcId addr : job_->addresses()) {
    client.process().spawn(
        "ds-exec-fan",
        [&client, addr, var, version, done, remaining, first] {
          auto r = client.call_timeout<rpc::None>(addr, "ds.exec",
                                                  des::seconds(600), var,
                                                  version);
          if (!r.has_value() && first->ok()) *first = r.status();
          if (--*remaining == 0) done->set_value(*first);
        },
        des::SpawnOptions{.daemon = true});
  }
  return done->wait();
}

Status DataSpaces::drop(rpc::Engine& client, const std::string& var,
                        std::uint64_t version) {
  Status first;
  for (net::ProcId addr : job_->addresses()) {
    auto r = client.call_raw(addr, "ds.drop", pack(var, version));
    if (!r.has_value() && first.ok()) first = r.status();
  }
  return first;
}

}  // namespace colza::baselines
