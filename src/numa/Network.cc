#include "numa/Network.h"

#include <algorithm>

#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

static_assert(sizeof(void *) + sizeof(Message) <= EventQueue::kCaptureBytes,
              "send()'s [this, msg] event must fit inline");

MeshNetwork::MeshNetwork(const NumaConfig &config, EventQueue &events)
    : config_(config), events_(events), sinks_(config.numNodes()),
      linkFree_(static_cast<std::size_t>(config.numNodes()) * 4, 0)
{
}

void
MeshNetwork::attach(ProcId id, Deliver sink)
{
    csr_assert(id < sinks_.size(), "node id out of range");
    sinks_[id] = std::move(sink);
}

std::uint32_t
MeshNetwork::hops(ProcId src, ProcId dst) const
{
    const auto dx = static_cast<std::int32_t>(colOf(src)) -
                    static_cast<std::int32_t>(colOf(dst));
    const auto dy = static_cast<std::int32_t>(rowOf(src)) -
                    static_cast<std::int32_t>(rowOf(dst));
    return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

Tick
MeshNetwork::unloadedLatency(ProcId src, ProcId dst, bool data) const
{
    if (src == dst)
        return config_.localBusNs;
    const std::uint32_t flits =
        data ? config_.dataFlits : config_.ctrlFlits;
    const std::uint32_t h = hops(src, dst);
    // Cut-through: head flit pays router+flit per hop; the body
    // serializes behind it once (on the narrowest -- here every --
    // link).
    return 2 * config_.nicNs + h * (config_.routerNs + config_.flitNs) +
           Tick{flits - 1} * config_.flitNs;
}

void
MeshNetwork::send(const Message &msg)
{
    csr_assert(msg.dst < sinks_.size() && sinks_[msg.dst],
               "send to unattached node");
    const Tick now = events_.now();
    counters_.inc(kMessages);

    if (msg.src == msg.dst) {
        // Intra-node: local bus only.
        counters_.inc(kLocal);
        events_.schedule(now + config_.localBusNs,
                         [this, msg] { sinks_[msg.dst](msg); });
        return;
    }

    const bool data = carriesData(msg.type);
    const std::uint32_t flits =
        data ? config_.dataFlits : config_.ctrlFlits;
    const Tick occupancy = Tick{flits} * config_.flitNs;
    counters_.inc(kFlits, flits);

    // Head-flit progression with per-link availability, hop by hop
    // along the dimension-order route: X first, then Y.
    Tick head = now + config_.nicNs;
    const auto cross = [&](std::size_t link) {
        Tick &free_at = linkFree_[link];
        const Tick start = std::max(head, free_at);
        const Tick queued = start - head;
        if (queued > 0)
            counters_.inc(kQueueNs, queued);
        free_at = start + occupancy;
        head = start + config_.routerNs + config_.flitNs;
    };
    // Link index = node * 4 + direction (0=east, 1=west, 2=south,
    // 3=north).
    std::size_t cur = msg.src;
    const std::uint32_t dst_col = colOf(msg.dst);
    const std::uint32_t dst_row = rowOf(msg.dst);
    for (std::uint32_t col = colOf(msg.src); col != dst_col;) {
        if (col < dst_col) {
            cross(cur * 4 + 0);
            ++cur;
            ++col;
        } else {
            cross(cur * 4 + 1);
            --cur;
            --col;
        }
    }
    for (std::uint32_t row = rowOf(msg.src); row != dst_row;) {
        if (row < dst_row) {
            cross(cur * 4 + 2);
            cur += config_.meshCols;
            ++row;
        } else {
            cross(cur * 4 + 3);
            cur -= config_.meshCols;
            --row;
        }
    }
    // Tail serialization once (cut-through) plus ejection NIC.
    const Tick arrival =
        head + Tick{flits - 1} * config_.flitNs + config_.nicNs;

    counters_.inc(kHopTotal, hops(msg.src, msg.dst));
    CSR_TRACE_INSTANT_V("numa", "net.msg_latency_ns", arrival - now);
    events_.schedule(arrival, [this, msg] { sinks_[msg.dst](msg); });
}

} // namespace csr
