#include "colza/deploy.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace colza {

void StagingArea::launch_initial(int n, net::NodeId base_node,
                                 std::function<void()> on_ready) {
  // Create the processes now (so their addresses are known for the founding
  // member list), but each daemon only starts after its launch latency.
  std::vector<net::Process*> procs;
  std::vector<net::ProcId> members;
  for (int i = 0; i < n; ++i) {
    auto& p = net_->create_process(base_node + static_cast<net::NodeId>(i));
    procs.push_back(&p);
    members.push_back(p.id());
  }
  // The founding group is created collectively: daemons launch with
  // staggered latencies, rendezvous (PMI-barrier style), and only then form
  // the SSG group -- otherwise early daemons would suspect the ones whose
  // launch is still in flight. The area is therefore ready at the LAST
  // daemon's launch time (this max-of-N-latencies is exactly what makes the
  // static strategy of Fig 4 slow and unpredictable).
  des::Duration barrier_at = 0;
  for (int i = 0; i < n; ++i) {
    barrier_at = std::max(barrier_at, launch_.sample(rng_, n));
  }
  auto remaining = std::make_shared<int>(n);
  auto& sim = net_->sim();
  for (int i = 0; i < n; ++i) {
    net::Process* p = procs[static_cast<std::size_t>(i)];
    sim.schedule_after(barrier_at, [this, p, members, remaining, on_ready] {
      p->spawn("colza-daemon", [this, p, members, remaining, on_ready] {
        servers_.push_back(std::make_unique<Server>(*p, config_, members,
                                                    &bootstrap_));
        if (--*remaining == 0 && on_ready) on_ready();
      });
    });
  }
}

void StagingArea::launch_one(net::NodeId node,
                             std::function<void(Server&)> on_joined) {
  auto& sim = net_->sim();
  const des::Duration srun = launch_.sample(rng_);
  sim.schedule_after(srun, [this, node, on_joined] {
    auto& p = net_->create_process(node);
    p.spawn("colza-daemon-join", [this, &p, on_joined] {
      // A failed join has already freed its half-built server: the one
      // exception to the lifetime rule (DESIGN.md S4), safe because none of
      // its fibers can run into it again.
      auto r = Server::join(p, config_, &bootstrap_);
      if (!r.has_value()) {
        COLZA_LOG_WARN("colza", "daemon failed to join: %s",
                       r.status().to_string().c_str());
        p.kill();
        return;
      }
      servers_.push_back(std::move(*r));
      if (on_joined) on_joined(*servers_.back());
    });
  });
}

Status StagingArea::launch_one_scheduled(
    std::function<void(Server&)> on_joined) {
  if (scheduler_ == nullptr)
    return Status::FailedPrecondition("no scheduler attached");
  auto granted = scheduler_->grow(job_, 1);
  if (!granted.has_value()) return granted.status();
  launch_one(granted->front(), std::move(on_joined));
  return Status::Ok();
}

Status StagingArea::release_scheduled(rpc::Engine& admin_engine,
                                      Server& server) {
  if (scheduler_ == nullptr)
    return Status::FailedPrecondition("no scheduler attached");
  const net::NodeId node = server.process().node();
  Status s = Admin(admin_engine).request_leave(server.address());
  if (!s.ok()) return s;
  // Return the node once the daemon is really gone (leave may be deferred
  // while iterations are active).
  auto& sim = net_->sim();
  struct Waiter {
    StagingArea* area;
    Server* server;
    net::NodeId node;
    void operator()() {
      if (server->alive()) {
        area->net_->sim().schedule_after(des::seconds(1), Waiter{*this},
                                         /*daemon=*/true);
        return;
      }
      (void)area->scheduler_->shrink(area->job_, {node});
    }
  };
  sim.schedule_after(des::seconds(1), Waiter{this, &server, node},
                     /*daemon=*/true);
  return Status::Ok();
}

void StagingArea::kill_all() {
  for (auto& s : servers_) {
    if (s->alive()) s->process().kill();
    killed_.push_back(std::move(s));
  }
  servers_.clear();
  bootstrap_.publish({});
}

}  // namespace colza
