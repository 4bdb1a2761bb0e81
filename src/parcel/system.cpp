#include "parcel/system.hpp"

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "des/mailbox.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "interconnect/contention.hpp"
#include "memory/memory_system.hpp"
#include "obs/metrics.hpp"

namespace pimsim::parcel {

void SplitTransactionParams::validate() const {
  require(nodes > 0, "SplitTransactionParams: need at least one node");
  require(ls_mix > 0.0 && ls_mix <= 1.0,
          "SplitTransactionParams: ls_mix must be in (0,1]");
  require(p_remote >= 0.0 && p_remote <= 1.0,
          "SplitTransactionParams: p_remote must be in [0,1]");
  require(t_local >= 0.0 && t_switch >= 0.0 && t_send >= 0.0,
          "SplitTransactionParams: service times must be non-negative");
  require(parallelism > 0, "SplitTransactionParams: parallelism must be >= 1");
  require(round_trip_latency >= 0.0,
          "SplitTransactionParams: latency must be non-negative");
  require(nic_gap >= 0.0, "SplitTransactionParams: nic_gap must be >= 0");
  require(message_bytes > 0, "SplitTransactionParams: message_bytes must be >= 1");
  require(horizon > 0.0, "SplitTransactionParams: horizon must be positive");
}

double SystemRunResult::total_work() const {
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.work();
  return sum;
}

double SystemRunResult::mean_idle_fraction() const {
  if (nodes.empty() || horizon <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.idle_cycles / horizon;
  return sum / static_cast<double>(nodes.size());
}

double SystemRunResult::mean_overhead_fraction() const {
  if (nodes.empty() || horizon <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& n : nodes) sum += n.overhead_cycles / horizon;
  return sum / static_cast<double>(nodes.size());
}

namespace {

/// A remote request of the statistical models: who asked, and the trigger
/// that reactivates the waiting thread/context once the reply arrives.  It
/// lives on the requester's frame, which stays suspended on `reply` until
/// the reply fires it.
struct Request {
  NodeId src;
  des::Trigger reply;
};

/// What a home node's mailbox carries: a pointer to the request, so the
/// message lambda is two pointers and fits std::function's inline buffer.
using SimMessage = Request*;

/// Picks a uniformly random remote target ("the degree of remote accesses"
/// is uniform over the other nodes; a 1-node system loops back to itself).
NodeId pick_target(Rng& rng, NodeId self, std::size_t nodes) {
  if (nodes <= 1) return self;
  auto t = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
  if (t >= self) ++t;
  return t;
}

/// What the two Figure 10 systems seed and name differently.  Everything
/// else — nodes, message path, memory seam, observability — is shared.
struct SystemKind {
  bool split;                 ///< test system: split-transaction parcels
  std::uint64_t stream_id;    ///< root RNG stream
  const char* node_prefix;    ///< resource/mailbox names: "<prefix><id>.in"
  const char* station;        ///< name suffix of the single-server station
  const char* rtt_metric;     ///< request round-trip summary
  const char* request_label;  ///< async trace span of one request
};

constexpr SystemKind kControlSystem{false, 0xC0, "ctl", ".mem",
                                    "msg.request_rtt_cycles", "msg.request"};
constexpr SystemKind kTestSystem{true, 0x7E, "pim", ".cpu",
                                 "parcel.request_rtt_cycles", "parcel.request"};

/// One node of either system.  The station is the node's one
/// single-server resource: the control node's DMA-reachable memory port
/// (ctl<i>.mem), or the test node's processor (pim<i>.cpu).
struct Node {
  Node(des::Simulation& sim, const SystemKind& kind, NodeId node_id,
       Rng node_rng)
      : id(node_id),
        incoming(sim, kind.node_prefix + std::to_string(node_id) + ".in"),
        station(sim, 1,
                kind.node_prefix + std::to_string(node_id) + kind.station),
        nic(sim, 1, kind.node_prefix + std::to_string(node_id) + ".nic"),
        rng(node_rng),
        addrs(node_id) {}

  NodeId id;
  des::Mailbox<SimMessage> incoming;
  des::Resource station;
  des::Resource nic;  ///< injection port (bandwidth ablation)
  Rng rng;
  NodeStats stats;
  mem::AddressStream addrs;  ///< banked memory: this node's address stream
};

/// Ships a message: serializes through the sender's NIC when nic_gap > 0,
/// then hands it to the interconnect's deliver() seam — the analytic
/// models schedule arrival after their closed-form latency (preserving
/// the paper's infinite-bandwidth model and the event ordering of
/// existing seeds); the packet-level model routes flits through its
/// simulated network instead.
des::Process inject(des::Simulation& sim, des::Resource& nic, Cycles gap,
                    const Interconnect& net, NodeId src, NodeId dst,
                    std::size_t bytes, std::function<void()> arrive) {
  co_await nic.acquire();
  co_await des::delay(sim, gap);
  nic.release();
  net.deliver(sim, src, dst, bytes, std::move(arrive));
}

void ship(des::Simulation& sim, des::Resource& nic, Cycles gap,
          const Interconnect& net, NodeId src, NodeId dst, std::size_t bytes,
          std::function<void()> arrive) {
  if (gap <= 0.0) {
    net.deliver(sim, src, dst, bytes, std::move(arrive));
  } else {
    sim.spawn(inject(sim, nic, gap, net, src, dst, bytes, std::move(arrive)));
  }
}

/// Either Figure 10 system.  Nodes, message path, memory seam and
/// observability hooks are shared; the node programs are the paper's
/// difference: the control node blocks on a remote access, the test node
/// splits the transaction and runs another parcel context.
class Figure10System {
 public:
  Figure10System(const SplitTransactionParams& params, const SystemKind& kind,
                 const Interconnect& net, const mem::MemorySystem* memory)
      : p_(params), gap_sampler_(p_.ls_mix), split_(kind.split), net_(net),
        mem_(memory) {
    Rng root(p_.seed, kind.stream_id);
    nodes_.reserve(p_.nodes);
    for (std::size_t i = 0; i < p_.nodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(
          sim_, kind, static_cast<NodeId>(i), root.split(i)));
    }
    if (sim_.metrics_enabled()) {
      m_rtt_ = &sim_.metrics().summary(kind.rtt_metric);
    }
    if (sim_.tracing_enabled()) {
      lbl_request_ = sim_.trace_label(kind.request_label);
    }
  }

  SystemRunResult run() {
    for (auto& node : nodes_) {
      if (split_) {
        for (std::size_t c = 0; c < p_.parallelism; ++c) {
          sim_.spawn(context(*node, node->rng.split(1000 + c)));
        }
        sim_.spawn(receive_loop<&Figure10System::handle_parcel>(*node));
      } else {
        sim_.spawn(node_main(*node));
        sim_.spawn(receive_loop<&Figure10System::serve_one>(*node));
      }
    }
    sim_.run_until(p_.horizon);
    if (sim_.metrics_enabled()) {
      net_.collect_metrics(sim_.metrics());
      if (mem_ != nullptr) mem_->collect_metrics(sim_.metrics());
    }

    SystemRunResult out;
    out.horizon = p_.horizon;
    out.nodes.reserve(nodes_.size());
    for (auto& node : nodes_) {
      NodeStats s = node->stats;
      // Test idle = no ready parcel context: everything the processor was
      // not doing; the cpu resource integrates busy time exactly.  The
      // control node accumulates its blocked time as it goes.
      if (split_) {
        s.idle_cycles = p_.horizon * (1.0 - node->station.utilization());
      }
      out.nodes.push_back(s);
    }
    return out;
  }

 private:
  using Server = des::Process (Figure10System::*)(Node&, SimMessage);

  // -------------------------------------------------------------------
  // Control system: conventional blocking message passing (Figure 10 top).
  // -------------------------------------------------------------------

  /// The node's single program thread: compute, access memory, and block
  /// on remote requests ("in this third state, the processor is considered
  /// to be idle").
  des::Process node_main(Node& n) {
    while (true) {
      // Compute run until the next memory access: each op is a load/store
      // with probability ls_mix, so the gap is geometric.
      const std::uint64_t gap = gap_sampler_(n.rng);
      if (gap > 0) {
        co_await des::delay(sim_, static_cast<double>(gap));
        n.stats.useful_cycles += static_cast<double>(gap);
        n.stats.compute_ops += gap;
      }
      if (n.rng.bernoulli(p_.p_remote)) {
        // Compose and send the request, then block until the reply.
        if (p_.t_send > 0.0) {
          co_await des::delay(sim_, p_.t_send);
          n.stats.overhead_cycles += p_.t_send;
        }
        Request request{n.id, des::Trigger(sim_)};
        const SimTime blocked_at = sim_.now();
        const std::uint64_t span = send_request(n, n.rng, request);
        co_await request.reply.wait();
        n.stats.idle_cycles += finish_request(n, span, blocked_at);
      } else {
        // Local access: the processor is in the memory-access state for
        // the whole span, including any wait for the (DMA-shared) port.
        // Behind the seam, the banked backend's per-bank FIFO takes over
        // the arbitration the node's memory port models otherwise.
        const SimTime start = sim_.now();
        if (mem_ != nullptr) {
          co_await bank_access(n);
        } else {
          co_await n.station.acquire();
          co_await des::delay(sim_, p_.t_local);
          n.station.release();
        }
        n.stats.mem_cycles += sim_.now() - start;
        ++n.stats.local_accesses;
      }
    }
  }

  /// Services one remote request at the home node's memory port without
  /// consuming its processor (DMA-style remote access).
  des::Process serve_one(Node& n, SimMessage msg) {
    if (mem_ != nullptr) {
      co_await bank_access(n);
    } else {
      co_await n.station.acquire();
      co_await des::delay(sim_, p_.t_local);
      n.station.release();
    }
    ++n.stats.accesses_served;
    send_reply(n, msg);
  }

  // -------------------------------------------------------------------
  // Test system: parcel-driven split transactions (Figure 10 bottom).
  // -------------------------------------------------------------------

  /// One parcel context (application thread) of a node. It owns the
  /// processor while running; a remote access emits a parcel and yields
  /// the processor instead of blocking it.
  des::Process context(Node& n, Rng rng) {
    while (true) {
      co_await n.station.acquire();
      if (p_.t_switch > 0.0) {
        co_await des::delay(sim_, p_.t_switch);
        n.stats.overhead_cycles += p_.t_switch;
      }
      // Run segments until this context suspends on a remote access.
      bool running = true;
      while (running) {
        const std::uint64_t gap = gap_sampler_(rng);
        if (gap > 0) {
          co_await des::delay(sim_, static_cast<double>(gap));
          n.stats.useful_cycles += static_cast<double>(gap);
          n.stats.compute_ops += gap;
        }
        if (rng.bernoulli(p_.p_remote)) {
          if (p_.t_send > 0.0) {
            co_await des::delay(sim_, p_.t_send);
            n.stats.overhead_cycles += p_.t_send;
          }
          Request request{n.id, des::Trigger(sim_)};
          const SimTime issued_at = sim_.now();
          const std::uint64_t span = send_request(n, rng, request);
          n.station.release();  // split transaction: don't hold the processor
          co_await request.reply.wait();
          finish_request(n, span, issued_at);
          running = false;  // loop around to re-acquire (pays the switch)
        } else if (mem_ != nullptr) {
          // Banked memory: the context holds the processor while the
          // access (including any bank queueing) is in flight, the same
          // busy-span accounting the control system uses.
          const SimTime start = sim_.now();
          co_await bank_access(n);
          n.stats.mem_cycles += sim_.now() - start;
          ++n.stats.local_accesses;
        } else {
          co_await des::delay(sim_, p_.t_local);
          n.stats.mem_cycles += p_.t_local;
          ++n.stats.local_accesses;
        }
      }
    }
  }

  /// The parcel's action at its home node: a memory access performed on
  /// the processor on behalf of the parcel.
  des::Process handle_parcel(Node& n, SimMessage msg) {
    co_await n.station.acquire();
    if (p_.t_switch > 0.0) {
      co_await des::delay(sim_, p_.t_switch);
      n.stats.overhead_cycles += p_.t_switch;
    }
    if (mem_ != nullptr) {
      const SimTime start = sim_.now();
      co_await bank_access(n);
      n.stats.mem_cycles += sim_.now() - start;
    } else {
      co_await des::delay(sim_, p_.t_local);
      n.stats.mem_cycles += p_.t_local;
    }
    n.station.release();
    ++n.stats.accesses_served;
    send_reply(n, msg);
  }

  // -------------------------------------------------------------------
  // Shared by both systems.
  // -------------------------------------------------------------------

  /// Turns each incoming request into a `Serve` process at the home node.
  template <Server Serve>
  des::Process receive_loop(Node& n) {
    while (true) {
      const SimMessage msg = co_await n.incoming.receive();
      sim_.spawn((this->*Serve)(n, msg));
    }
  }

  /// One access of `n`'s address stream through the banked memory seam.
  mem::AccessAwaitable bank_access(Node& n) {
    return mem::AccessAwaitable{*mem_, sim_, n.id, n.addrs.next(),
                                mem::AccessKind::kLwpRow};
  }

  /// Counts a remote request from `n`, opens its trace span and ships it
  /// to a random other node, whose reply fires `request.reply`.  Returns
  /// the span.
  std::uint64_t send_request(Node& n, Rng& rng, Request& request) {
    ++n.stats.remote_requests;
    const NodeId target = pick_target(rng, n.id, p_.nodes);
    const std::uint64_t span = next_span_++;
    if (sim_.tracing_enabled()) {
      sim_.trace(des::TraceKind::kAsyncBegin, lbl_request_, span, n.id);
    }
    auto* box = &nodes_[target]->incoming;
    const SimMessage msg = &request;
    ship(sim_, n.nic, p_.nic_gap, net_, n.id, target, p_.message_bytes,
         [box, msg] { box->send(msg); });
    return span;
  }

  /// Closes the request `span` once its reply has woken the requester;
  /// returns the round trip since `issued_at`.
  SimTime finish_request(const Node& n, std::uint64_t span, SimTime issued_at) {
    const SimTime rtt = sim_.now() - issued_at;
    if (m_rtt_ != nullptr) m_rtt_->add(rtt);
    if (sim_.tracing_enabled()) {
      sim_.trace(des::TraceKind::kAsyncEnd, lbl_request_, span, n.id);
    }
    return rtt;
  }

  /// Ships the reply to `msg` back over the network; it wakes the requester.
  void send_reply(Node& n, SimMessage msg) {
    ship(sim_, n.nic, p_.nic_gap, net_, n.id, msg->src, p_.message_bytes,
         [reply = &msg->reply] { reply->fire(); });
  }

  SplitTransactionParams p_;
  GeometricSampler gap_sampler_;  ///< compute run until the next access
  bool split_;
  const Interconnect& net_;
  const mem::MemorySystem* mem_;  ///< nullptr: analytic constant path
  des::Simulation sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Observability hooks, bound at construction iff the layer is on.
  obs::Summary* m_rtt_ = nullptr;
  des::LabelId lbl_request_ = 0;
  std::uint64_t next_span_ = 1;  ///< async-span ids for request lifecycles
};

std::unique_ptr<Interconnect> default_net(const SplitTransactionParams& p) {
  if (p.contention) {
    // Same topology, calibrated to the same zero-load latencies — the
    // packet model binds itself to the run's Simulation on first use.
    return interconnect::make_contention_interconnect(p.network, p.nodes,
                                                      p.round_trip_latency);
  }
  return make_interconnect(p.network, p.nodes, p.round_trip_latency);
}

/// Builds the run's memory model from params.memory.  "analytic" returns
/// nullptr — the systems then run the pre-seam constant-delay code path,
/// keeping the default figures bitwise identical.  Anything else goes
/// through make_memory (which rejects unknown kinds), calibrated so the
/// zero-load access latency is exactly t_local.
std::unique_ptr<mem::MemorySystem> default_memory(
    const SplitTransactionParams& p) {
  if (p.memory == "analytic") return nullptr;
  mem::MemoryConfig mc;
  mc.kind = p.memory;
  mc.nodes = p.nodes;
  mc.banks = p.mem_banks;
  mc.queue = p.mem_queue;
  mc.lwp_row_cycles = p.t_local;
  return mem::make_memory(mc);
}

SystemRunResult run_system(const SplitTransactionParams& params,
                           const SystemKind& kind, const Interconnect* net,
                           const mem::MemorySystem* memory) {
  params.validate();
  std::unique_ptr<Interconnect> owned;
  if (net == nullptr) {
    owned = default_net(params);
    net = owned.get();
  }
  std::unique_ptr<mem::MemorySystem> owned_mem;
  if (memory == nullptr) {
    owned_mem = default_memory(params);
    memory = owned_mem.get();  // stays nullptr for "analytic"
  }
  Figure10System system(params, kind, *net, memory);
  return system.run();
}

}  // namespace

SystemRunResult run_split_transaction_system(const SplitTransactionParams& params,
                                             const Interconnect* net,
                                             const mem::MemorySystem* memory) {
  return run_system(params, kTestSystem, net, memory);
}

SystemRunResult run_message_passing_system(const SplitTransactionParams& params,
                                           const Interconnect* net,
                                           const mem::MemorySystem* memory) {
  return run_system(params, kControlSystem, net, memory);
}

ComparisonPoint compare_systems(const SplitTransactionParams& params) {
  const SystemRunResult test = run_split_transaction_system(params);
  const SystemRunResult control = run_message_passing_system(params);
  ComparisonPoint out;
  out.test_work = test.total_work();
  out.control_work = control.total_work();
  ensure(out.control_work > 0.0, "compare_systems: control did no work");
  out.work_ratio = out.test_work / out.control_work;
  out.test_idle = test.mean_idle_fraction();
  out.control_idle = control.mean_idle_fraction();
  return out;
}

}  // namespace pimsim::parcel
