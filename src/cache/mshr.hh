/**
 * @file
 * Miss Status Holding Register file with support for the paper's
 * fragmented (two-part) cache-line transfers: an entry buffers the
 * critical-word fragment from the fast DIMM and the rest-of-line+ECC
 * fragment from the slow DIMM independently (paper Section 4.2.2:
 * "the added complexity is the support for buffering two parts of the
 * cache line in the MSHR").
 */

#ifndef HETSIM_CACHE_MSHR_HH
#define HETSIM_CACHE_MSHR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace hetsim::check
{
class LiveIds;
} // namespace hetsim::check

namespace hetsim::cache
{

/** A load waiting on an outstanding line. */
struct MshrWaiter
{
    std::uint8_t coreId = 0;
    std::uint16_t robSlot = 0;
    std::uint8_t word = 0;  ///< word of the line the load needs
    Tick joinTick = 0;      ///< when the load parked (MSHR-wait phase)
};

struct MshrEntry
{
    bool valid = false;
    std::uint64_t id = 0;  ///< stable handle passed to the memory backend
    Addr lineAddr = kAddrInvalid;

    /** Word index stored on the fast DIMM for this line; kNoFastWord for
     *  configurations without a fast fragment. */
    static constexpr unsigned kNoFastWord = kWordsPerLine;
    unsigned storedCriticalWord = kNoFastWord;

    /** Word requested by the miss that allocated the entry. */
    unsigned requestedWord = 0;

    bool isPrefetch = false;
    /** A demand access merged into this (prefetch) entry while it was in
     *  flight; such fills count toward the demand work quantum. */
    bool demandJoined = false;
    bool writeAllocate = false;  ///< fill installs dirty (store miss)

    /** Core whose access allocated the entry (gets the L1 fill). */
    std::uint8_t allocCore = 0;

    bool fastArrived = false;
    bool fastParityOk = true;
    bool slowArrived = false;
    /** At least one waiter was woken by the fast fragment (feeds the
     *  early-wake lead histogram at completion). */
    bool earlyWoke = false;

    Tick allocTick = 0;
    Tick fastTick = kTickNever;
    Tick slowTick = kTickNever;

    /** First access to a *different* word than requestedWord, for the
     *  paper's gap-to-second-access analysis (Section 6.1.1). */
    Tick secondAccessTick = kTickNever;

    std::vector<MshrWaiter> waiters;

    bool
    complete() const
    {
        return slowArrived &&
               (fastArrived || storedCriticalWord == kNoFastWord);
    }
};

class MshrFile
{
  public:
    explicit MshrFile(unsigned capacity);
    ~MshrFile();

    bool hasFree() const { return freeList_.size() > 0; }
    std::size_t inUse() const { return capacity_ - freeList_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Entry tracking @p line_addr, or nullptr. */
    MshrEntry *find(Addr line_addr);
    const MshrEntry *find(Addr line_addr) const;

    /** Entry with handle @p id (must be live). */
    MshrEntry &byId(std::uint64_t id);

    /** Allocate a fresh entry; nullptr when full. */
    MshrEntry *allocate(Addr line_addr, Tick now);

    /** Release a completed entry. */
    void release(MshrEntry &entry);

    /** Protocol validator: every allocation still live is a leak (call
     *  once the file has drained; no-op unless built armed). */
    void checkDrained();

    const Counter &allocations() const { return allocations_; }
    const Counter &fullStalls() const { return fullStalls_; }
    void noteFullStall() { fullStalls_.inc(); }

    void
    resetStats()
    {
        allocations_.reset();
        fullStalls_.reset();
    }

  private:
    unsigned capacity_;
    std::vector<MshrEntry> entries_;
    std::vector<unsigned> freeList_;
    std::unordered_map<Addr, unsigned> byLine_;
    std::uint64_t nextId_ = 1;

    Counter allocations_;
    Counter fullStalls_;
    /** Live ids; null unless built while check::armed(). */
    std::unique_ptr<check::LiveIds> check_;
};

} // namespace hetsim::cache

#endif // HETSIM_CACHE_MSHR_HH
