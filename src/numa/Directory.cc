#include "numa/Directory.h"

#include <algorithm>
#include <string>

#include "robust/Errors.h"
#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

DirectoryController::DirectoryController(ProcId node,
                                         const NumaConfig &config,
                                         EventQueue &events,
                                         MeshNetwork &network)
    : node_(node), config_(config), events_(events), network_(network),
      bankFree_(config.memBanks, 0)
{
    if (config.numNodes() > SharerList::kCapacity) {
        throw ConfigError("the directory tracks at most " +
                          std::to_string(SharerList::kCapacity) +
                          " nodes, not " +
                          std::to_string(config.numNodes()));
    }
    const std::size_t requests =
        static_cast<std::size_t>(config.numNodes()) * config.mshrs;
    txns_.reserve(requests);
    queued_.reserve(requests);
}

const DirEntry *
DirectoryController::entryOf(Addr block) const
{
    const Block *b = blocks_.find(block);
    return b ? &b->entry : nullptr;
}

bool
DirectoryController::busy(Addr block) const
{
    const Block *b = blocks_.find(block);
    return b && b->txn != kNoSlot;
}

DirectoryController::Block &
DirectoryController::busyBlock(Addr block)
{
    Block *b = blocks_.find(block);
    csr_assert(b && b->txn != kNoSlot, "no transaction in flight");
    return *b;
}

void
DirectoryController::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX: {
        // Busy means: a transaction in flight, or a queued successor
        // waiting out the directory-occupancy delay before starting.
        Block &b = blocks_[msg.block];
        if (b.txn != kNoSlot || b.waitHead != kNoSlot) {
            const std::uint32_t slot = queued_.acquire(Queued{msg});
            if (b.waitTail == kNoSlot)
                b.waitHead = slot;
            else
                queued_[b.waitTail].next = slot;
            b.waitTail = slot;
            counters_.inc(kQueued);
        } else {
            startTransaction(b, msg);
        }
        break;
      }
      case MsgType::InvAck:
        handleAck(msg);
        break;
      case MsgType::FetchResp:
      case MsgType::FetchStale:
        handleFetchDone(msg);
        break;
      case MsgType::PutM:
        handlePutM(msg);
        break;
      case MsgType::PutS:
        handlePutS(msg);
        break;
      case MsgType::PutE:
        handlePutE(msg);
        break;
      default:
        csr_panic("directory received %s", msgTypeName(msg.type).c_str());
    }
}

void
DirectoryController::startTransaction(Block &b, const Message &req)
{
    csr_assert(b.txn == kNoSlot, "transaction already in flight");
    Txn txn;
    txn.req = req;
    txn.stateAtArrival = b.entry.state;
    b.txn = txns_.acquire(txn);
    counters_.inc(req.type == MsgType::GetS ? kGetS : kGetX);
    CSR_TRACE_INSTANT("numa", req.type == MsgType::GetS ? "dir.txn.gets"
                                                        : "dir.txn.getx");

    if (req.type == MsgType::GetS)
        handleGetS(b);
    else
        handleGetX(b);
}

void
DirectoryController::handleGetS(Block &b)
{
    Txn &txn = txns_[b.txn];
    const DirEntry &entry = b.entry;
    const Addr block = txn.req.block;

    switch (entry.state) {
      case DirEntry::State::Uncached:
      case DirEntry::State::Shared:
        readMemory(block);
        break;
      case DirEntry::State::Exclusive:
        if (entry.owner == txn.req.src) {
            // Owner silently evicted a clean-exclusive line (no-hints
            // mode) and now re-reads: memory is valid.
            readMemory(block);
        } else {
            txn.waitingFetch = true;
            sendToCache(MsgType::Fetch, block, entry.owner, txn.req.src,
                        txn.req.timestamp);
        }
        break;
    }
}

void
DirectoryController::handleGetX(Block &b)
{
    Txn &txn = txns_[b.txn];
    const DirEntry &entry = b.entry;
    const Addr block = txn.req.block;

    switch (entry.state) {
      case DirEntry::State::Uncached:
        readMemory(block);
        break;
      case DirEntry::State::Shared: {
        std::uint32_t invs = 0;
        for (ProcId sharer : entry.sharers) {
            if (sharer == txn.req.src)
                continue;
            sendToCache(MsgType::Inv, block, sharer, txn.req.src,
                        txn.req.timestamp);
            ++invs;
        }
        txn.pendingAcks = invs;
        counters_.inc(kInvs, invs);
        readMemory(block);
        break;
      }
      case DirEntry::State::Exclusive:
        if (entry.owner == txn.req.src) {
            // Silent clean eviction followed by a write re-request.
            readMemory(block);
        } else {
            txn.waitingFetch = true;
            sendToCache(MsgType::FetchInv, block, entry.owner,
                        txn.req.src, txn.req.timestamp);
        }
        break;
    }
}

void
DirectoryController::handleAck(const Message &msg)
{
    Block &b = busyBlock(msg.block);
    Txn &txn = txns_[b.txn];
    csr_assert(txn.pendingAcks > 0, "unexpected InvAck");
    --txn.pendingAcks;
    maybeComplete(b);
}

void
DirectoryController::handleFetchDone(const Message &msg)
{
    Block *b = blocks_.find(msg.block);
    if (!b || b->txn == kNoSlot) {
        // A FetchStale can trail a transaction that a racing PutM
        // already completed; it is harmless.
        counters_.inc(kStaleFetchResp);
        return;
    }
    Txn &txn = txns_[b->txn];
    csr_assert(txn.waitingFetch, "fetch response without fetch");
    txn.waitingFetch = false;

    if (msg.type == MsgType::FetchResp) {
        txn.ownerWasDirty = msg.dirty;
        if (msg.dirty) {
            txn.dataFromOwner = true;
            accessMemory(msg.block); // writeback, off path
            txn.memDone = true;
            maybeComplete(*b);
            return;
        }
        // Clean copy at the owner: memory is valid, read it.
    }
    // FetchStale, or clean FetchResp: read memory (unless a racing
    // PutM already delivered the data).
    if (txn.dataFromOwner) {
        txn.memDone = true;
        maybeComplete(*b);
        return;
    }
    readMemory(msg.block);
}

void
DirectoryController::handlePutM(const Message &msg)
{
    Block &b = blocks_[msg.block];
    DirEntry &entry = b.entry;
    if (b.txn != kNoSlot) {
        // Racing with a Fetch/FetchInv for the same block: use the
        // writeback as the data; the FetchStale will complete us.
        Txn &txn = txns_[b.txn];
        txn.dataFromOwner = true;
        txn.ownerWasDirty = true;
        accessMemory(msg.block);
        counters_.inc(kPutMRace);
        return;
    }
    if (entry.state == DirEntry::State::Exclusive &&
        entry.owner == msg.src) {
        accessMemory(msg.block);
        entry.state = DirEntry::State::Uncached;
        entry.sharers.clear();
        counters_.inc(kPutM);
    } else {
        counters_.inc(kPutMStale);
    }
}

void
DirectoryController::handlePutS(const Message &msg)
{
    Block &b = blocks_[msg.block];
    DirEntry &entry = b.entry;
    if (entry.sharers.erase(msg.src)) {
        if (entry.sharers.empty() &&
            entry.state == DirEntry::State::Shared && b.txn == kNoSlot) {
            entry.state = DirEntry::State::Uncached;
        }
        counters_.inc(kPutS);
    } else {
        counters_.inc(kPutSStale);
    }
}

void
DirectoryController::handlePutE(const Message &msg)
{
    Block &b = blocks_[msg.block];
    DirEntry &entry = b.entry;
    if (b.txn != kNoSlot) {
        // The in-flight Fetch will be answered with FetchStale; the
        // completion path rebuilds the entry.
        counters_.inc(kPutERace);
        return;
    }
    if (entry.state == DirEntry::State::Exclusive &&
        entry.owner == msg.src) {
        entry.state = DirEntry::State::Uncached;
        entry.sharers.clear();
        counters_.inc(kPutE);
    } else {
        counters_.inc(kPutEStale);
    }
}

void
DirectoryController::maybeComplete(Block &b)
{
    const Txn &txn = txns_[b.txn];
    if (txn.pendingAcks == 0 && !txn.waitingFetch && txn.memDone)
        complete(b);
}

void
DirectoryController::complete(Block &b)
{
    const Txn txn = txns_[b.txn];
    const Addr block = txn.req.block;
    DirEntry &entry = b.entry;
    const ProcId req = txn.req.src;

    if (txn.req.type == MsgType::GetS) {
        if (txn.stateAtArrival == DirEntry::State::Exclusive &&
            entry.owner != req) {
            // Downgrade: previous owner (if it still holds the line)
            // plus the requester now share it.
            entry.state = DirEntry::State::Shared;
            entry.sharers.clear();
            entry.sharers.push_back(entry.owner);
            entry.sharers.push_back(req);
            CSR_TRACE_INSTANT("numa", "coh.E_to_S");
            sendToCache(MsgType::DataS, block, req, req,
                        txn.req.timestamp);
        } else if (txn.stateAtArrival == DirEntry::State::Shared) {
            if (!entry.sharers.contains(req))
                entry.sharers.push_back(req);
            entry.state = DirEntry::State::Shared;
            CSR_TRACE_INSTANT("numa", "coh.S_to_S");
            sendToCache(MsgType::DataS, block, req, req,
                        txn.req.timestamp);
        } else {
            // Uncached (or silent self re-read): grant exclusive.
            entry.state = DirEntry::State::Exclusive;
            entry.owner = req;
            entry.sharers.clear();
            CSR_TRACE_INSTANT("numa", "coh.U_to_E");
            sendToCache(MsgType::DataE, block, req, req,
                        txn.req.timestamp);
        }
    } else {
        entry.state = DirEntry::State::Exclusive;
        entry.owner = req;
        entry.sharers.clear();
        CSR_TRACE_INSTANT("numa", "coh.to_M");
        sendToCache(MsgType::DataM, block, req, req, txn.req.timestamp);
    }

    if (observer_) {
        MissService service;
        service.requester = req;
        service.block = block;
        service.write = txn.req.type == MsgType::GetX;
        service.stateAtArrival = txn.stateAtArrival;
        service.ownerWasDirty = txn.ownerWasDirty;
        service.unloadedLatency = unloadedServiceLatency(txn);
        observer_(service);
    }

    txns_.release(b.txn);
    b.txn = kNoSlot;

    // Serve the next queued request for this block, paying the
    // directory occupancy again.  The message stays in the queue
    // until it actually starts so that the block reads as busy and
    // newly arriving requests keep queueing FIFO behind it.
    if (b.waitHead != kNoSlot) {
        events_.scheduleIn(config_.dirProcessNs,
                           [this, block] { startQueued(block); });
    }
}

void
DirectoryController::startQueued(Addr block)
{
    Block *b = blocks_.find(block);
    csr_assert(b && b->waitHead != kNoSlot, "queued request vanished");
    const std::uint32_t slot = b->waitHead;
    const Message next = queued_[slot].req;
    b->waitHead = queued_[slot].next;
    if (b->waitHead == kNoSlot)
        b->waitTail = kNoSlot;
    queued_.release(slot);
    startTransaction(*b, next);
}

Tick
DirectoryController::accessMemory(Addr block)
{
    const std::size_t bank = block % config_.memBanks;
    const Tick start = std::max(events_.now() + config_.dirProcessNs,
                                bankFree_[bank]);
    bankFree_[bank] = start + config_.memAccessNs;
    counters_.inc(kMemAccess);
    return start + config_.memAccessNs;
}

void
DirectoryController::readMemory(Addr block)
{
    events_.schedule(accessMemory(block), [this, block] {
        Block &b = busyBlock(block);
        txns_[b.txn].memDone = true;
        maybeComplete(b);
    });
}

void
DirectoryController::sendToCache(MsgType type, Addr block, ProcId dst,
                                 ProcId requester, Tick timestamp,
                                 bool dirty)
{
    Message msg;
    msg.type = type;
    msg.block = block;
    msg.src = node_;
    msg.dst = dst;
    msg.requester = requester;
    msg.timestamp = timestamp;
    msg.dirty = dirty;
    network_.send(msg);
}

Tick
DirectoryController::unloadedServiceLatency(const Txn &txn) const
{
    const ProcId req = txn.req.src;
    const Tick req_leg = network_.unloadedLatency(req, node_, false);
    const Tick data_leg = network_.unloadedLatency(node_, req, true);
    Tick service = config_.dirProcessNs + config_.memAccessNs;
    if (txn.stateAtArrival == DirEntry::State::Exclusive &&
        txn.ownerWasDirty) {
        // Three-hop: the fetch round trip to the (former) owner
        // replaces part of the memory access but adds two legs.  Use
        // the average owner distance for the class value so that the
        // class depends only on (type, state, dirtiness).
        service += 2 * network_.unloadedLatency(node_, (node_ + 1) %
                                                config_.numNodes(),
                                                true);
    }
    return req_leg + service + data_leg;
}

} // namespace csr
