/**
 * @file
 * Per-bank DRAM timing state machine.
 *
 * A bank tracks its open row and the earliest global ticks at which each
 * command class may next be issued to it.  All times are in global CPU
 * ticks; the channel controller converts device cycles via
 * DeviceParams::ticks().
 */

#ifndef HETSIM_DRAM_BANK_HH
#define HETSIM_DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_params.hh"

namespace hetsim::dram
{

class Bank
{
  public:
    static constexpr std::int64_t kNoRow = -1;

    /** Currently open row, or kNoRow when precharged.  Written only by
     *  the member functions below, which keep the owning rank's count of
     *  open banks in step. */
    std::int64_t openRow = kNoRow;

    /** Earliest tick for the next ACTIVATE (covers tRC/tRP; also the
     *  "bank ready" gate for RLDRAM's compound READ/WRITE). */
    Tick nextActivate = 0;
    /** Earliest tick for the next column read/write to this bank. */
    Tick nextColumn = 0;
    /** Earliest tick for the next PRECHARGE (covers tRAS/tRTP/tWR). */
    Tick nextPrecharge = 0;

    // ---- statistics ----
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    bool isOpen() const { return openRow != kNoRow; }

    bool
    canActivate(Tick now) const
    {
        return !isOpen() && now >= nextActivate;
    }

    bool
    canColumn(Tick now) const
    {
        return now >= nextColumn;
    }

    bool
    canPrecharge(Tick now) const
    {
        return now >= nextPrecharge;
    }

    /** Apply an ACTIVATE at @p now. */
    void activate(Tick now, std::int64_t row, const DeviceParams &p);

    /** Apply a column READ at @p now (open-page; no auto-precharge). */
    void read(Tick now, const DeviceParams &p);

    /** Apply a column WRITE at @p now. */
    void write(Tick now, const DeviceParams &p);

    /** Apply a PRECHARGE at @p now. */
    void precharge(Tick now, const DeviceParams &p);

    /**
     * Apply an RLDRAM-style compound access (implicit activate + column +
     * auto-precharge): bank turns around in tRC.
     */
    void compoundAccess(Tick now, const DeviceParams &p, bool is_write);

    /** Close the row by the column command's auto-precharge
     *  (close-page policy); the next ACTIVATE waits until @p ready. */
    void autoPrecharge(Tick ready);

    /** Forcibly close the row (refresh / power-down entry). */
    void forceClose(Tick not_before, const DeviceParams &p);

    void resetStats();

  private:
    friend class Rank;

    void open(std::int64_t row);
    void close();

    /** The owning rank's open-bank count; null for a bank on its own. */
    unsigned *openBanks_ = nullptr;
};

} // namespace hetsim::dram

#endif // HETSIM_DRAM_BANK_HH
