// The simulated fabric: nodes, processes, mailboxes, message transmission,
// and one-sided RDMA reads of exposed memory regions.
//
// Layering: net knows nothing about RPCs, tags or collectives. It delivers
// byte payloads from process to process with a virtual-time delay computed
// from a Profile (the sending library's protocol model) plus shared-NIC
// serialization, and it lets a process pull bytes from another process's
// exposed memory (the RDMA path Colza's stage() uses).
//
// Elasticity: processes can be created at any virtual time and killed at any
// virtual time. Messages addressed to a dead or never-created process are
// silently dropped -- exactly what a real fabric does; detecting the loss is
// the job of upper layers (RPC timeouts, SWIM suspicion).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "net/address.hpp"
#include "net/profile.hpp"

namespace colza::net {

class Network;
class Process;

// Hook the chaos layer implements to perturb traffic. The network consults
// the injector (when one is attached) once per transmit and once per RDMA
// operation, after its own alive/link checks pass and the baseline delay is
// known. Returning `drop` swallows the message (exactly like fabric loss);
// `extra_delay` shifts the delivery time; `duplicates` schedules that many
// extra copies spaced `dup_spacing` apart after the original. The hot path
// is untouched when no injector is installed.
struct FaultVerdict {
  bool drop = false;
  des::Duration extra_delay = 0;
  int duplicates = 0;
  des::Duration dup_spacing = 0;
  // In-transit corruption (consulted by rdma_get only): after the payload is
  // copied, the byte at `corrupt_offset % size` is XORed with `corrupt_xor`
  // (0 = intact). Models the bit flip a NIC's link-level CRC missed --
  // exactly the fault end-to-end checksums exist to catch.
  std::uint8_t corrupt_xor = 0;
  std::uint64_t corrupt_offset = 0;
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultVerdict on_message(const Process& src, const Process& dst,
                                  const std::string& box, std::uint64_t tag,
                                  std::size_t bytes, des::Duration base) = 0;
  // RDMA has no payload copy to duplicate; only drop/extra_delay apply.
  virtual FaultVerdict on_rdma(const Process& self, ProcId owner,
                               std::size_t bytes, des::Duration base) = 0;
};

struct NetworkConfig {
  // Hardware wire latency between distinct nodes (added to every transfer).
  // Default 0: the per-library Profile sw_latency values are calibrated as
  // FULL one-way path costs (Table I fit); raise this to study additional
  // topology-induced latency.
  des::Duration wire_latency = des::nanoseconds(0);
  // Raw NIC serialization bandwidth per node (shared by all processes and
  // all libraries on that node); creates incast contention.
  double nic_bandwidth_gbps = 16.0;
  // Fault injection: probability that an inter-node message is silently
  // dropped (exercises retries, RPC timeouts, and SWIM's indirect probes).
  double message_loss_probability = 0.0;
  // Two-level (dragonfly-style) topology: nodes are grouped in blocks of
  // `nodes_per_group` (0 = flat network); traffic crossing a group boundary
  // pays `inter_group_latency` extra (the paper's Cori is an Aries
  // dragonfly; the default flat model matches the Table I calibration,
  // which was measured across arbitrary node pairs).
  std::uint32_t nodes_per_group = 0;
  des::Duration inter_group_latency = des::nanoseconds(400);
};

// A message as seen by a mailbox: source process, an opaque user tag the
// upper layer uses for demultiplexing, and the payload. The payload is a
// pooled move-only buffer: it is filled once at the sender and travels by
// move through transmit -> delivery event -> mailbox -> demux, returning its
// storage to the pool when the receiver consumes it.
struct Message {
  ProcId source = kInvalidProc;
  std::uint64_t tag = 0;
  common::Buffer payload;
};

// FIFO mailbox with blocking receive. Each process owns any number of named
// mailboxes ("rpc", "mona", ...), one per protocol layered on top.
class Mailbox {
 public:
  explicit Mailbox(des::Simulation& sim) : sim_(&sim), mutex_(sim), cv_(sim) {}

  void push(Message msg);

  // Blocks the calling fiber until a message arrives. Returns nullopt only
  // if `timeout` elapses (no timeout = wait forever) or the mailbox closes.
  std::optional<Message> recv(
      std::optional<des::Duration> timeout = std::nullopt);
  std::optional<Message> try_recv();

  // Wakes all blocked receivers with "no message" (used when the owning
  // process dies or shuts down).
  void close();
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  des::Simulation* sim_;
  des::Mutex mutex_;
  des::CondVar cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
};

// Identifies a memory region exposed for RDMA by some process. Serializable;
// this is what Colza's stage() metadata carries instead of the data itself.
struct BulkRef {
  ProcId owner = kInvalidProc;
  std::uint64_t region = 0;
  std::uint64_t size = 0;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & owner & region & size;
  }
};

// A simulated OS process bound to a node. Owns fibers (tagged with its id),
// mailboxes, and exposed RDMA regions.
class Process {
 public:
  Process(Network& net, ProcId id, NodeId node);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcId id() const noexcept { return id_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] Network& network() noexcept { return *net_; }
  [[nodiscard]] des::Simulation& sim() noexcept;

  // Spawns a fiber tagged with this process (tag = id + 1 so tag 0 stays
  // "no process").
  des::FiberHandle spawn(std::string name, std::function<void()> body,
                         des::SpawnOptions opts = {});

  // Named mailbox, created on first use.
  Mailbox& mailbox(const std::string& name);

  // Marks the process dead: mailboxes close, future deliveries are dropped,
  // exposed regions vanish. Its fibers are not stopped: they run on until
  // their loops notice (a closed mailbox, a failed call, an alive() check),
  // so the objects they capture must stay allocated while the simulation
  // can still run them (DESIGN.md S4; StagingArea keeps killed servers).
  void kill();

  // ---- RDMA exposure ------------------------------------------------------
  // The region must stay valid until unexpose(); Colza guarantees this by
  // keeping staged data alive until deactivate().
  BulkRef expose(std::span<const std::byte> region);
  void unexpose(const BulkRef& ref);
  [[nodiscard]] std::optional<std::span<const std::byte>> lookup(
      const BulkRef& ref) const;

 private:
  friend class Network;
  Network* net_;
  ProcId id_;
  NodeId node_;
  bool alive_ = true;
  // A process owns at most a handful of mailboxes ("mona", "rpc", ...), and
  // mailbox() runs once per transmitted message: a linear scan over a small
  // vector beats any tree/hash lookup here. Pointers stay stable (boxes are
  // heap-owned), which transmit() relies on.
  std::vector<std::pair<std::string, std::unique_ptr<Mailbox>>> mailboxes_;
  std::map<std::uint64_t, std::span<const std::byte>> regions_;
  std::uint64_t next_region_ = 1;
};

// The staging byte path: returns common::crc32c(src) and, when `dst` is set,
// also copies `src` to [dst, dst + src.size()). Each 24 KiB piece is hashed
// and then copied while it is still in L1. A source of two or more 256 KiB
// chunks runs one des::parallel_pure task per whole chunk and splices the
// chunk CRCs in index order (common::crc32c_splice); the tail, and a smaller
// source whole, run on the calling thread, so a small block never wakes the
// pool. Both whole-block passes of a stage use it: the client's stage-time
// checksum (dst null) and the server's pull (rdma_get).
[[nodiscard]] std::uint32_t crc32c_copy(std::span<const std::byte> src,
                                        std::byte* dst);

class Network {
 public:
  Network(des::Simulation& sim, NetworkConfig config = {});
  ~Network();

  [[nodiscard]] des::Simulation& sim() noexcept { return *sim_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  // ---- topology ------------------------------------------------------------
  Process& create_process(NodeId node);
  [[nodiscard]] Process* find(ProcId id) noexcept;
  // The lowest-id alive process placed on `node`, or nullptr if the node is
  // empty. Deterministic, so chaos rules can target "whoever runs on node N
  // right now" (including supervisor-launched replacements).
  [[nodiscard]] Process* find_alive_on_node(NodeId node) noexcept;
  [[nodiscard]] std::size_t alive_count() const noexcept;

  // ---- fault injection -------------------------------------------------------
  // Cuts (or restores) the directed link a -> b: messages and RDMA between
  // the pair are dropped/fail while down. Used to force SWIM onto its
  // indirect-probe (ping-req) path and to test partial-connectivity cases.
  void set_link_down(ProcId a, ProcId b, bool down);
  [[nodiscard]] bool link_down(ProcId a, ProcId b) const;

  // Attaches (or detaches, with nullptr) the chaos layer's injector. The
  // injector must outlive the network or be detached before it dies.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  // ---- two-sided path -------------------------------------------------------
  // Sends `msg` to mailbox `box` of process `dst` using `profile`'s protocol
  // model. Never blocks the caller beyond the local software overhead; the
  // message is delivered (or dropped) at the modeled arrival time.
  void transmit(Process& src, ProcId dst, const std::string& box,
                const Profile& profile, Message msg);

  // Pure cost query (used by tests and by the collective algorithms' local
  // decisions); does not model NIC contention.
  [[nodiscard]] des::Duration message_delay(NodeId src, NodeId dst,
                                            std::size_t bytes,
                                            const Profile& profile) const;

  // ---- one-sided path --------------------------------------------------------
  // Pulls [offset, offset+length) of the remote exposed region and appends
  // it to `out`. Blocks the calling fiber for the modeled transfer time. The
  // range is checked against `ref` and, when the owner's region is live,
  // against that region before anything is allocated or waited for: `ref`
  // is a wire value, and a forged length fails fast instead of sizing a
  // buffer. `out` is reserved before the modeled wait (so its allocation
  // lands where it always has in the heap) and resized only after every
  // completion-time check has passed, with no zero-fill: crc32c_copy writes
  // every appended byte. On failure `out` keeps its size and bytes.
  //
  // On success `*crc` (when given) is the CRC32C of the appended bytes as
  // they landed, computed in the same pass as the copy (crc32c_copy). An
  // injected in-flight flip is covered (the digest is recomputed over the
  // landed range), so a reader compares it with the sender's checksum
  // instead of re-reading the block.
  Status rdma_get(Process& self, const BulkRef& ref, std::uint64_t offset,
                  std::uint64_t length, common::Bytes& out,
                  const Profile& profile, std::uint32_t* crc = nullptr);

 private:
  struct Node {
    des::Time nic_free = 0;  // NIC serialization: next instant the NIC is idle
  };

  // Reserves the node's NIC for `bytes` starting no earlier than `earliest`;
  // returns the completion time of the serialization.
  des::Time reserve_nic(NodeId node, des::Time earliest, std::size_t bytes);
  des::Duration rdma_delay(Process& self, ProcId owner, std::size_t bytes,
                           const Profile& profile);

  des::Simulation* sim_;
  NetworkConfig config_;
  // ProcIds are dense (allocated sequentially from 1, never reclaimed), so
  // the per-message destination lookup is a vector index, not a tree walk.
  std::vector<std::unique_ptr<Process>> procs_;  // index = ProcId - 1
  std::unordered_map<NodeId, Node> nodes_;
  // Rendezvous handshakes are serviced one at a time by the receiver's
  // single-threaded progress engine; this serialization is what makes
  // incast rendezvous traffic (OpenMPI linear collectives) collapse.
  std::unordered_map<ProcId, des::Time> rndv_free_;
  std::set<std::pair<ProcId, ProcId>> down_links_;
  FaultInjector* injector_ = nullptr;
  std::unique_ptr<Rng> loss_rng_;
  ProcId next_proc_ = 1;
};

}  // namespace colza::net
