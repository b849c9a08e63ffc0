/**
 * @file
 * Shared test utilities.
 *
 * MiniCache wraps a CacheModel and a per-block cost table -- a minimal
 * stand-in for the simulators that makes single-set policy scenarios
 * easy to script and assert.  All accesses go through the CacheModel's
 * shared protocol (the same one TraceSimulator and the NUMA
 * CacheController use).
 *
 * uniqueTempPath() names scratch files so that test processes running
 * in parallel never share one.
 */

#ifndef CSR_TESTS_TESTHELPERS_H
#define CSR_TESTS_TESTHELPERS_H

#include <set>
#include <string>
#include <unistd.h>
#include <utility>

#include <gtest/gtest.h>

#include "cache/CacheModel.h"
#include "cost/StaticCostModels.h"

namespace csr::test
{

/** Minimal policy-driving cache for unit tests. */
class MiniCache
{
  public:
    MiniCache(const CacheGeometry &geom, PolicyPtr policy,
              const CostModel &cost)
        : model_(geom, std::move(policy)), cost_(&cost)
    {
    }

    /** Access a byte address through the full protocol.
     *  @return true on a hit. */
    bool
    access(Addr addr)
    {
        const CacheGeometry &geom = model_.geometry();
        const std::uint32_t set = geom.setIndex(addr);
        const Addr tag = geom.tag(addr);
        if (model_.access(set, tag) != kInvalidWay)
            return true;

        lastVictimValid_ = false;
        model_.fillVictimOrFree(
            set, tag, cost_->missCost(geom.blockAddr(addr)), 0,
            [this](int, Addr victim_tag, std::uint32_t) {
                lastVictimTag_ = victim_tag;
                lastVictimValid_ = true;
            });
        return false;
    }

    /** Coherence invalidation of a byte address. */
    void
    invalidate(Addr addr)
    {
        const CacheGeometry &geom = model_.geometry();
        model_.invalidateTag(geom.setIndex(addr), geom.tag(addr));
    }

    /** Resident block addresses of a set (unordered). */
    std::set<Addr>
    residentBlocks(std::uint32_t set) const
    {
        const CacheGeometry &geom = model_.geometry();
        std::set<Addr> blocks;
        for (std::uint32_t w = 0; w < geom.assoc(); ++w) {
            if (model_.isValid(set, static_cast<int>(w)))
                blocks.insert(geom.blockAddrOf(
                    set, model_.tagAt(set, static_cast<int>(w))));
        }
        return blocks;
    }

    bool
    isResident(Addr addr) const
    {
        const CacheGeometry &geom = model_.geometry();
        return model_.lookup(geom.setIndex(addr), geom.tag(addr)) !=
               kInvalidWay;
    }

    /** Tag of the block evicted by the most recent miss (valid only
     *  if the miss replaced a valid line). */
    Addr lastVictimTag() const { return lastVictimTag_; }
    bool lastVictimValid() const { return lastVictimValid_; }

    ReplacementPolicy &policy() { return *model_.policy(); }
    const CacheGeometry &geometry() const { return model_.geometry(); }
    const CacheModel &model() const { return model_; }

  private:
    CacheModel model_;
    const CostModel *cost_;
    Addr lastVictimTag_ = 0;
    bool lastVictimValid_ = false;
};

/** Single-set geometry: assoc ways of 64-byte blocks. */
inline CacheGeometry
singleSet(std::uint32_t assoc)
{
    return CacheGeometry(static_cast<std::uint64_t>(assoc) * 64, assoc, 64);
}

/** Byte address of the n-th distinct block mapping to set 0 of a
 *  single-set cache. */
inline Addr
blk(std::uint64_t n)
{
    return n * 64;
}

/**
 * A scratch-file path under gtest's temp dir that no other test
 * process shares: ctest runs every case in its own process, in
 * parallel under -j, so the name carries the pid and the running
 * test's name, plus a per-process counter for repeated calls, before
 * @p name (which keeps the file's extension).
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    static unsigned counter = 0;
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test =
        info ? std::string(info->test_suite_name()) + "." + info->name()
             : std::string("no_test");
    for (char &c : test)
        if (c == '/')
            c = '_'; // parameterized suites and cases
    return ::testing::TempDir() + "csr_" + std::to_string(::getpid()) +
           "_" + test + "_" + std::to_string(counter++) + "_" + name;
}

} // namespace csr::test

#endif // CSR_TESTS_TESTHELPERS_H
