#include "cache/mshr.hh"

#include "check/checker.hh"
#include "common/log.hh"

namespace hetsim::cache
{

MshrFile::MshrFile(unsigned capacity) : capacity_(capacity)
{
    sim_assert(capacity_ > 0, "MSHR file needs capacity");
    entries_.resize(capacity_);
    freeList_.reserve(capacity_);
    for (unsigned i = 0; i < capacity_; ++i)
        freeList_.push_back(capacity_ - 1 - i);
    if (check::armed())
        check_ = std::make_unique<check::LiveIds>(check::LiveIds::Kind::Mshr);
}

MshrFile::~MshrFile() = default;

MshrEntry *
MshrFile::find(Addr line_addr)
{
    const auto it = byLine_.find(line_addr);
    return it == byLine_.end() ? nullptr : &entries_[it->second];
}

const MshrEntry *
MshrFile::find(Addr line_addr) const
{
    const auto it = byLine_.find(line_addr);
    return it == byLine_.end() ? nullptr : &entries_[it->second];
}

MshrEntry &
MshrFile::byId(std::uint64_t id)
{
    // Ids encode their slot in the low bits for O(1) lookup.
    const unsigned slot = static_cast<unsigned>(id % capacity_);
    MshrEntry &entry = entries_[slot];
    sim_assert(entry.valid && entry.id == id, "stale MSHR handle ", id);
    return entry;
}

MshrEntry *
MshrFile::allocate(Addr line_addr, Tick now)
{
    sim_assert(!find(line_addr), "duplicate MSHR for line ", line_addr);
    if (freeList_.empty())
        return nullptr;
    const unsigned slot = freeList_.back();
    freeList_.pop_back();

    MshrEntry &entry = entries_[slot];
    entry = MshrEntry{};
    entry.valid = true;
    // Handle = generation * capacity + slot, so byId can both locate the
    // slot and detect staleness.
    entry.id = nextId_ * capacity_ + slot;
    nextId_ += 1;
    entry.lineAddr = line_addr;
    entry.allocTick = now;

    byLine_[line_addr] = slot;
    allocations_.inc();
    if (check_) [[unlikely]]
        check_->add(entry.id, now);
    return &entry;
}

void
MshrFile::release(MshrEntry &entry)
{
    sim_assert(entry.valid, "release of invalid MSHR entry");
    const auto it = byLine_.find(entry.lineAddr);
    sim_assert(it != byLine_.end() && &entries_[it->second] == &entry,
               "MSHR map corruption");
    const unsigned slot = it->second;
    byLine_.erase(it);
    if (check_) [[unlikely]]
        check_->remove(entry.id, entry.allocTick);
    entry.valid = false;
    entry.waiters.clear();
    freeList_.push_back(slot);
}

void
MshrFile::checkDrained()
{
    if (check_)
        check_->drain();
}

} // namespace hetsim::cache
