#include "dram/bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace hetsim::dram
{

void
Bank::activate(Tick now, std::int64_t row, const DeviceParams &p)
{
    sim_assert(canActivate(now), "ACTIVATE issued while bank not ready");
    open(row);
    activates += 1;
    nextColumn = std::max(nextColumn, now + p.ticks(p.tRCD));
    nextPrecharge = std::max(nextPrecharge, now + p.ticks(p.tRAS));
    nextActivate = now + p.ticks(p.tRC);
}

void
Bank::read(Tick now, const DeviceParams &p)
{
    sim_assert(isOpen() && canColumn(now), "READ to unready bank");
    reads += 1;
    nextColumn = std::max(nextColumn, now + p.ticks(p.tCCD));
    nextPrecharge = std::max(nextPrecharge, now + p.ticks(p.tRTP));
}

void
Bank::write(Tick now, const DeviceParams &p)
{
    sim_assert(isOpen() && canColumn(now), "WRITE to unready bank");
    writes += 1;
    nextColumn = std::max(nextColumn, now + p.ticks(p.tCCD));
    // Row must stay open until write recovery completes.
    nextPrecharge = std::max(
        nextPrecharge, now + p.ticks(p.tWL + p.tBurst + p.tWR));
}

void
Bank::precharge(Tick now, const DeviceParams &p)
{
    sim_assert(isOpen() && canPrecharge(now), "PRECHARGE to unready bank");
    close();
    precharges += 1;
    nextActivate = std::max(nextActivate, now + p.ticks(p.tRP));
}

void
Bank::compoundAccess(Tick now, const DeviceParams &p, bool is_write)
{
    sim_assert(now >= nextActivate, "compound access to busy RLDRAM bank");
    sim_assert(!isOpen(), "RLDRAM bank must be auto-precharged");
    activates += 1;
    if (is_write)
        writes += 1;
    else
        reads += 1;
    // The bank self-precharges; it can accept a new access after tRC.
    nextActivate = now + p.ticks(p.tRC);
}

void
Bank::autoPrecharge(Tick ready)
{
    sim_assert(isOpen(), "auto-precharge of a closed bank");
    close();
    precharges += 1;
    nextActivate = std::max(nextActivate, ready);
}

void
Bank::forceClose(Tick not_before, const DeviceParams &p)
{
    if (isOpen()) {
        close();
        precharges += 1;
    }
    nextActivate = std::max(nextActivate, not_before + p.ticks(p.tRP));
}

void
Bank::open(std::int64_t row)
{
    openRow = row;
    if (openBanks_)
        *openBanks_ += 1;
}

void
Bank::close()
{
    openRow = kNoRow;
    if (openBanks_)
        *openBanks_ -= 1;
}

void
Bank::resetStats()
{
    activates = 0;
    precharges = 0;
    reads = 0;
    writes = 0;
}

} // namespace hetsim::dram
