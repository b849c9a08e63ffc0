/**
 * @file
 * Home-node directory controller (blocking MESI directory).
 *
 * Each node is home for the blocks first-touched by ... whichever
 * processor touched them first (the HomeMap implements the per-block
 * first-touch placement of Table 4).  The home serializes coherence:
 * at most one transaction per block is in flight; requests arriving
 * for a busy block queue FIFO.  Invalidation acknowledgements are
 * collected at the home before the write reply is sent.
 *
 * Directory states: Uncached, Shared{sharers}, Exclusive{owner}
 * (the owner may hold the line E or M; dirtiness is discovered on
 * Fetch).  With replacement hints off, the directory tolerates stale
 * owner/sharer info: Fetch/Inv to nodes that silently evicted are
 * answered with FetchStale/InvAck.
 */

#ifndef CSR_NUMA_DIRECTORY_H
#define CSR_NUMA_DIRECTORY_H

#include <array>
#include <cstdint>
#include <vector>

#include "numa/Event.h"
#include "numa/Network.h"
#include "numa/NumaConfig.h"
#include "numa/Pool.h"
#include "numa/Protocol.h"
#include "numa/StatCounters.h"
#include "util/FlatMap.h"
#include "util/Stats.h"

namespace csr
{

/**
 * Global first-touch home assignment (one instance per system).
 */
class HomeMap
{
  public:
    /** Home of a block; assigns @p toucher as home on first touch. */
    ProcId
    homeOf(Addr block, ProcId toucher)
    {
        ProcId &home = map_[block].id;
        if (home == kUnassigned)
            home = toucher;
        return home;
    }

    /** True once some processor has touched the block. */
    bool
    known(Addr block) const
    {
        return map_.find(block) != nullptr;
    }

    /** Home of a block already touched. */
    ProcId
    homeOf(Addr block) const
    {
        const Home *home = map_.find(block);
        csr_assert(home != nullptr, "block has no home yet");
        return home->id;
    }

    std::size_t size() const { return map_.size(); }

  private:
    static constexpr ProcId kUnassigned = ~ProcId{0};

    struct Home
    {
        ProcId id = kUnassigned;
    };

    FlatMap<Home> map_;
};

/**
 * The nodes sharing a block, in the order they joined: the home
 * invalidates them in this order.  Held inline, one byte per node.
 */
class SharerList
{
  public:
    /** Largest node count the directory supports. */
    static constexpr std::size_t kCapacity = 16;

    const std::uint8_t *begin() const { return ids_.data(); }
    const std::uint8_t *end() const { return ids_.data() + count_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    contains(ProcId node) const
    {
        for (const std::uint8_t id : *this)
            if (id == node)
                return true;
        return false;
    }

    void
    push_back(ProcId node)
    {
        csr_assert(count_ < kCapacity && node < kCapacity,
                   "sharer list overflow");
        ids_[count_++] = static_cast<std::uint8_t>(node);
    }

    /** Remove @p node, keeping the others in order.
     *  @return false if it was not a sharer. */
    bool
    erase(ProcId node)
    {
        for (std::size_t i = 0; i < count_; ++i) {
            if (ids_[i] == node) {
                for (std::size_t j = i + 1; j < count_; ++j)
                    ids_[j - 1] = ids_[j];
                --count_;
                return true;
            }
        }
        return false;
    }

    void clear() { count_ = 0; }

  private:
    std::array<std::uint8_t, kCapacity> ids_{};
    std::uint8_t count_ = 0;
};

/** Directory state of one block at its home. */
struct DirEntry
{
    enum class State : std::uint8_t
    {
        Uncached,
        Shared,
        Exclusive,
    };

    ProcId owner = 0;
    State state = State::Uncached;
    SharerList sharers;
};

/**
 * Per-miss service record, consumed by the Table 3 latency
 * correlator and by tests.
 */
struct MissService
{
    ProcId requester = 0;
    Addr block = 0;
    bool write = false;                 ///< GetX vs GetS
    DirEntry::State stateAtArrival = DirEntry::State::Uncached;
    bool ownerWasDirty = false;         ///< E-state miss hit a dirty copy
    Tick unloadedLatency = 0;           ///< analytic zero-contention ns
};

/** The home-side controller of one node. */
class DirectoryController
{
  public:
    /** Observer of serviced misses; captures up to two words. */
    using MissObserver = InlineFunction<void(const MissService &), 16>;

    /** @throws ConfigError when the mesh has more nodes than a
     *  SharerList holds. */
    DirectoryController(ProcId node, const NumaConfig &config,
                        EventQueue &events, MeshNetwork &network);

    /** Handle a home-bound message (requests, hints, acks). */
    void receive(const Message &msg);

    /** Observer invoked once per serviced GetS/GetX. */
    void setMissObserver(MissObserver observer) { observer_ = observer; }

    const StatGroup &
    stats() const
    {
        counters_.foldInto(stats_);
        return stats_;
    }

    /** Directory state introspection (tests). */
    const DirEntry *entryOf(Addr block) const;
    bool busy(Addr block) const;
    /** In-flight transactions (stall diagnostics). */
    std::size_t pendingTransactions() const { return txns_.live(); }

    /** Call @p fn(block, entry) for every block this home knows. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        blocks_.forEach([&fn](Addr block, const Block &b) {
            fn(block, b.entry);
        });
    }

  private:
    /** In-flight transaction bookkeeping. */
    struct Txn
    {
        Message req;
        DirEntry::State stateAtArrival = DirEntry::State::Uncached;
        std::uint32_t pendingAcks = 0;
        bool waitingFetch = false;
        bool memDone = false;
        bool dataFromOwner = false; ///< PutM/FetchResp(dirty) arrived
        bool ownerWasDirty = false;
    };

    /** A request queued behind a busy block (FIFO per block). */
    struct Queued
    {
        Message req;
        std::uint32_t next = kNoSlot;
    };

    /** Everything the home keeps per block: the directory entry, its
     *  in-flight transaction and its queue of waiting requests. */
    struct Block
    {
        DirEntry entry;
        std::uint32_t txn = kNoSlot;      ///< slot in txns_
        std::uint32_t waitHead = kNoSlot; ///< oldest slot in queued_
        std::uint32_t waitTail = kNoSlot;
    };

    void startTransaction(Block &b, const Message &req);
    void handleGetS(Block &b);
    void handleGetX(Block &b);
    void handleAck(const Message &msg);
    void handleFetchDone(const Message &msg);
    void handlePutM(const Message &msg);
    void handlePutS(const Message &msg);
    void handlePutE(const Message &msg);

    /** @p block, which must have a transaction in flight. */
    Block &busyBlock(Addr block);

    /** Try to finish the transaction (all acks + mem + fetch done). */
    void maybeComplete(Block &b);
    /** Send the data reply, update the directory, pop the queue. */
    void complete(Block &b);
    /** Start the oldest request queued behind @p block. */
    void startQueued(Addr block);

    /** Occupy a DRAM bank for one access.  @return the tick the
     *  access completes. */
    Tick accessMemory(Addr block);
    /** A DRAM read for @p block's transaction; marks it memDone at
     *  completion. */
    void readMemory(Addr block);

    void
    sendToCache(MsgType type, Addr block, ProcId dst, ProcId requester,
                Tick timestamp, bool dirty = false);

    /** Analytic unloaded service latency for the Table 3 classes. */
    Tick unloadedServiceLatency(const Txn &txn) const;

    enum Stat : std::size_t
    {
        kQueued,
        kGetS,
        kGetX,
        kInvs,
        kStaleFetchResp,
        kPutMRace,
        kPutM,
        kPutMStale,
        kPutS,
        kPutSStale,
        kPutERace,
        kPutE,
        kPutEStale,
        kMemAccess,
        kNumStats,
    };
    static constexpr const char *kStatNames[kNumStats] = {
        "dir.queued",    "dir.gets",       "dir.getx",
        "dir.invs",      "dir.stale_fetch_resp", "dir.putm_race",
        "dir.putm",      "dir.putm_stale", "dir.puts",
        "dir.puts_stale", "dir.pute_race", "dir.pute",
        "dir.pute_stale", "dir.mem_access",
    };

    ProcId node_;
    NumaConfig config_;
    EventQueue &events_;
    MeshNetwork &network_;
    FlatMap<Block> blocks_;
    /** Transaction and queue pools, reserved for every MSHR in the
     *  system (each holds at most one request in flight). */
    SlotPool<Txn> txns_;
    SlotPool<Queued> queued_;
    std::vector<Tick> bankFree_;
    MissObserver observer_;
    mutable StatCounters<kNumStats> counters_{kStatNames};
    mutable StatGroup stats_;
};

} // namespace csr

#endif // CSR_NUMA_DIRECTORY_H
