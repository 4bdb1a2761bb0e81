// Discrete-event, packet-level interconnect model.
//
// Messages are segmented into flits (packet.hpp) and injected through the
// source node's NIC into the topology's link graph (topology.hpp).  Each
// directed link is a FIFO arbitration queue, a wire that serializes one
// flit per flit_cycle, and a credit-counted input buffer at its downstream
// router.  A flit may start crossing a link only when the wire is free AND
// a downstream buffer slot (credit) is available, so a congested router
// backpressures its upstream links hop by hop — the contention the
// analytic latency models assume away.
//
// Engine (rewritten for throughput; see src/interconnect/README.md):
//
//  * Packets live in a generation-tagged slab pool; queue entries are POD
//    segments holding index handles.  No shared_ptr, no per-message heap
//    allocation once the pools are warm, and a NIC injection is one O(1)
//    segment the serializer meters flits off as the wire drains.
//  * Each link is a flat LinkState driven by direct calendar events (a
//    dedicated EventAction static-call kind) instead of a coroutine
//    parked on a mailbox and a resource.  In-flight arrivals are appended
//    to the downstream link's ring under a pre-allocated sequence key; a
//    real arrival event is scheduled only when that serializer is parked,
//    and then at exactly the calendar position the eager event would have
//    held.
//  * Flit-train coalescing: when a link's queue head is a run of
//    consecutive flits of one packet and credits cover the run, a single
//    event advances the whole train by n * flit_cycle, and the train's
//    arrivals leave as one streaming segment the next hop serves as a
//    train of its own — an uncontended traversal costs O(hops) events,
//    not O(hops x flits).  Per-flit credit returns are replayed
//    cycle-exactly from a per-link ledger (blocked serializers arm a
//    wake-up for the next return's maturity cycle), so backpressure
//    timing is unchanged.
//
// Arbitration is wormhole-style: once a packet's head flit wins a link,
// the rest of its queued run follows without interleaving.  Zero-load
// timing is the closed form in packet.hpp (zero_load_cycles), which the
// DES reproduces bit-exactly for integer-valued timings.
//
// The model is deterministic: routing is table-driven, all queues are
// FIFO, and the event kernel dispatches same-time events in scheduling
// order, so repeated runs of the same traffic are bit-identical; the
// golden timing tests (tests/test_interconnect_golden.cpp) pin that.
//
// Known limitation (documented, acceptable for the ablation studies): no
// virtual channels/datelines, so the wrap cycles of ring/torus topologies
// can deadlock at sustained injection beyond saturation.  packets_in_flight()
// exposes undrained traffic so harnesses can detect this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "des/fifo.hpp"
#include "des/simulation.hpp"
#include "interconnect/packet.hpp"
#include "interconnect/topology.hpp"

namespace pimsim::obs {
class MetricsRegistry;
class Summary;
}  // namespace pimsim::obs

namespace pimsim::interconnect {

/// Aggregate statistics of one directed link.
struct LinkStats {
  std::uint64_t flits = 0;       ///< flits carried
  double utilization = 0.0;      ///< busy fraction of the wire
  double mean_occupancy = 0.0;   ///< mean downstream buffer occupancy (flits)
  double peak_occupancy = 0.0;   ///< peak downstream buffer occupancy (flits)
};

class PacketNetwork {
 public:
  PacketNetwork(des::Simulation& sim, Topology topology,
                PacketConfig config = {});

  PacketNetwork(const PacketNetwork&) = delete;
  PacketNetwork& operator=(const PacketNetwork&) = delete;

  /// Injects a `bytes`-byte message from src to dst; `on_delivered` (may
  /// be empty) fires when the last flit is consumed at the destination.
  /// The NIC holds the message as one O(1) queue entry and meters flits
  /// onto the first link as its serializer drains.
  void send(NodeId src, NodeId dst, std::size_t bytes,
            std::function<void()> on_delivered = {});

  /// Contention-free end-to-end latency of a `bytes`-byte message (the
  /// closed form from PacketConfig; assumes credits never stall the
  /// pipeline, which holds on an otherwise idle path with enough credits).
  [[nodiscard]] Cycles zero_load_latency(NodeId src, NodeId dst,
                                         std::size_t bytes) const;

  // --- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return sent_ - delivered_;
  }
  /// Total link traversals completed by flits (the bench's work unit).
  [[nodiscard]] std::uint64_t flit_hops() const { return flit_hops_; }
  /// Non-const: reading the stats folds the link's deferred credit
  /// ledger up to now() (observable results are unchanged; the fold is
  /// when pending occupancy decrements land in the accumulators).
  [[nodiscard]] LinkStats link_stats(std::uint32_t link);
  /// End-to-end delivered-packet latency, in cycles.
  [[nodiscard]] const RunningStats& latency_stats() const { return latency_; }
  [[nodiscard]] const Histogram& latency_histogram() const {
    return latency_hist_;
  }

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const PacketConfig& config() const { return cfg_; }

  /// Publishes per-link utilization/occupancy summaries and the packet
  /// counters into `registry` (end-of-run; folds the credit ledgers, hence
  /// non-const).  Callers guard with sim.metrics_enabled().
  void collect_metrics(obs::MetricsRegistry& registry);

 private:
  /// Pooled packet record; (generation << 32 | index) handles detect
  /// stale references across slot reuse.
  struct PacketRec {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t flits = 1;
    std::uint32_t ejected = 0;  ///< flits that have left the ejection wire
    std::uint32_t generation = 1;
    std::uint32_t next_free = 0xffffffffu;
    SimTime injected_at = 0.0;
    std::function<void()> on_delivered;
  };
  using Handle = std::uint64_t;

  /// A run of `count` consecutive flits of one packet waiting in (or in
  /// flight toward) a link's arbitration queue.  Flit i becomes available
  /// at ready + i * stride (stride 0: all queued at once, e.g. a NIC
  /// injection; stride flit_cycle: streaming off an upstream wire).
  /// `key` is the calendar sequence the enqueue holds in the global FIFO
  /// order (see the deferred-event hooks in des/simulation.hpp).
  struct Segment {
    Handle packet = 0;
    double ready = 0.0;
    double stride = 0.0;
    std::uint64_t key = 0;
    std::uint32_t count = 1;
    std::uint32_t from_link = kNoLink;
  };

  /// Flat FIFO ring of segments (amortized allocation-free).
  using SegRing = des::Fifo<Segment>;

  /// A pending stream of deferred credit returns at times first,
  /// first+stride, ...: what a coalesced train (or an elided ejection
  /// arrival) still owes a link's input buffer.
  struct OpRun {
    double first = 0.0;
    double stride = 0.0;
    std::uint32_t left = 0;
  };

  enum class Phase : std::uint8_t {
    kIdle,         ///< wire free, no staged flit
    kSerializing,  ///< a flit (or train) is crossing; an advance is scheduled
    kBlocked,      ///< head flit staged, waiting for a downstream credit
  };

  struct LinkState {
    SegRing mat;  ///< materialized entries: NIC injections, routed pushes
    SegRing net;  ///< lazily appended in-flight arrivals (ready-monotone)
    std::vector<OpRun> ledger;  ///< pending micro-ops, folded on touch
    std::int64_t credits = 0;   ///< folded available downstream credits
    Phase phase = Phase::kIdle;
    bool wake_armed = false;     ///< a keyed wake-up is scheduled
    bool credit_wake_armed = false;  ///< wake for a deferred credit return
    bool train_active = false;   ///< current advance covers a whole train
    double train_busy_from = 0.0;  ///< wire-busy window start of the train
    double wake_ready = 0.0;     ///< earliest armed wake-up time
    Handle cur_packet = 0;       ///< flit on the wire / staged (see phase)
    std::uint32_t cur_from = kNoLink;
    std::uint64_t flits = 0;
    TimeWeighted busy;       ///< wire occupancy
    TimeWeighted occupancy;  ///< downstream input-buffer occupancy
  };

  // --- event plumbing (EventAction::call trampolines) -------------------
  enum class Ev : std::uint64_t {
    kAdvance,  ///< heap: serialization end of the current flit/train
    kArrive,   ///< heap: flit lands at a transit router (zero link_latency)
    kLocal,    ///< lane: src == dst local delivery
    kWake,     ///< heap: keyed wake-up for a lazily appended arrival
    kCreditWake,  ///< heap: a ledgered credit return matures for a
                  ///< blocked serializer
    kComplete,    ///< heap: a packet's final flit lands at its NIC
  };
  static void on_event(void* self, std::uint64_t a, std::uint64_t b);
  void schedule_ev(SimTime at, Ev ev, std::uint32_t link, Handle packet);

  // --- engine -----------------------------------------------------------
  void on_advance(std::uint32_t link);
  void on_arrive(std::uint32_t link, Handle handle);
  void on_wake(std::uint32_t link);
  void on_credit_wake(std::uint32_t link);

  void fold_ledger(LinkState& link, double t);
  /// Audit-mode credit-conservation check (see des/audit.hpp); called on
  /// link-advance events when sim_.audit_enabled().
  void audit_check_link(const LinkState& link) const;
  void push_run(LinkState& link, double first, double stride,
                std::uint32_t left);
  void release_credit(std::uint32_t link);
  void arm_credit_wake(std::uint32_t link);
  [[nodiscard]] SegRing* fifo_front(LinkState& link);  ///< nullptr if empty
  void arm_wake(std::uint32_t link, double ready, std::uint64_t key);
  void poke(std::uint32_t link);  ///< wake an idle serializer if work is due
  void try_begin(std::uint32_t link);
  void begin(std::uint32_t link);
  void run_train(std::uint32_t link, SegRing* ring, std::uint32_t flits);
  void deliver_flit(std::uint32_t link);  ///< arrival side of on_advance
  void append_net(std::uint32_t link, Handle packet, double ready,
                  double stride, std::uint32_t count, std::uint32_t from);
  void complete(Handle handle);

  [[nodiscard]] PacketRec& rec(Handle handle);
  [[nodiscard]] Handle alloc_packet();
  void free_packet(Handle handle);

  /// Emits a link-occupancy counter trace record (no-op unless tracing).
  void trace_occupancy(std::uint32_t link);
  [[nodiscard]] des::LabelId occupancy_label(std::uint32_t link);

  des::Simulation& sim_;
  Topology topo_;
  PacketConfig cfg_;
  std::vector<LinkState> links_;
  std::vector<PacketRec> pool_;
  std::uint32_t pool_free_ = 0xffffffffu;
  /// Lazily appended arrivals need a strictly positive link latency (a
  /// zero-latency arrival would have to land in the current timestep).
  bool lazy_arrivals_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t flit_hops_ = 0;
  RunningStats latency_;
  Histogram latency_hist_;
  /// Metrics handle, bound at construction when metrics are enabled; null
  /// otherwise (one predicted branch per delivery).
  obs::Summary* m_latency_ = nullptr;
  /// Lazily interned per-link counter-track labels (tracing only).
  std::vector<des::LabelId> link_trace_labels_;
};

}  // namespace pimsim::interconnect
