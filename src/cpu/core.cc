#include "cpu/core.hh"

#include <algorithm>

#include "common/log.hh"

namespace hetsim::cpu
{

Core::Core(std::uint8_t id, const Params &params, OpSource source,
           cache::Hierarchy &hierarchy)
    : id_(id), params_(params), source_(std::move(source)),
      hierarchy_(hierarchy)
{
    sim_assert(params_.robSize > 0 && params_.width > 0,
               "core needs ROB entries and width");
    sim_assert(source_, "core needs an op source");
    readyAt_.resize(params_.robSize);
}

bool
Core::lastLoadPending(Tick now) const
{
    return lastLoadSeq_ > retired_ && readyAt_[lastLoadSlot_] > now;
}

void
Core::tick(Tick now)
{
    // The ROB cursors live in locals for the whole tick and are written
    // back once, not once per op.  Nothing the hierarchy calls back
    // (wake(), markBulkWait()) touches them.
    Tick *ready_at = readyAt_.data();
    unsigned head = head_;
    unsigned tail = tail_;
    unsigned count = count_;

    // ---- retire ----
    const unsigned max_retire = std::min(params_.width, count);
    unsigned retiring = 0;
    while (retiring < max_retire && ready_at[head] <= now) {
        head = nextSlot(head);
        retiring += 1;
    }
    count -= retiring;
    retired_ += retiring;

    // ---- dispatch ----
    for (unsigned w = 0; w < params_.width; ++w) {
        if (count == params_.robSize) {
            dispatchStalls_ += 1;
            break;
        }
        workloads::MicroOp op;
        if (hasPendingOp_) {
            op = pendingOp_;
            hasPendingOp_ = false;
        } else {
            op = source_();
        }

        if (op.isMem && op.dependsOnPrev && lastLoadPending(now)) {
            pendingOp_ = op;
            hasPendingOp_ = true;
            dispatchStalls_ += 1;
            break;
        }

        Tick ready;
        if (!op.isMem) {
            ready = now + 1;
        } else if (op.isWrite) {
            const cache::Hierarchy::AccessResult res =
                hierarchy_.store(id_, op.addr, now);
            if (res.outcome == cache::Hierarchy::Outcome::Blocked) {
                pendingOp_ = op;
                hasPendingOp_ = true;
                dispatchStalls_ += 1;
                break;
            }
            ready = res.readyAt;
        } else {
            const cache::Hierarchy::AccessResult res = hierarchy_.load(
                id_, static_cast<std::uint16_t>(tail), op.addr, now);
            if (res.outcome == cache::Hierarchy::Outcome::Blocked) {
                pendingOp_ = op;
                hasPendingOp_ = true;
                dispatchStalls_ += 1;
                break;
            }
            if (res.outcome == cache::Hierarchy::Outcome::Ready)
                ready = res.readyAt;
            else
                ready = res.bulkWait ? kParkedBulk : kParked;
            lastLoadSlot_ = tail;
            lastLoadSeq_ = retired_ + count + 1;
        }

        ready_at[tail] = ready;
        tail = nextSlot(tail);
        count += 1;
    }

    head_ = head;
    tail_ = tail;
    count_ = count;
    robOccupancySum_ += count;

    // ---- CPI-stack attribution ----
    const CpiBucket bucket =
        retiring != 0 ? CpiBucket::Compute : stallBucket();
    cpi_[static_cast<unsigned>(bucket)] += 1;
}

Core::CpiBucket
Core::stallBucket() const
{
    // Classified from the post-dispatch ROB state alone.
    if (count_ == 0)
        return CpiBucket::DispatchStall;
    if (readyAt_[head_] == kParked)
        return CpiBucket::CritWait;
    if (readyAt_[head_] == kParkedBulk)
        return CpiBucket::BulkWait;
    return robFull() ? CpiBucket::RobFull : CpiBucket::DispatchStall;
}

void
Core::wake(std::uint16_t slot, Tick now)
{
    // Only a parked load holds a parked tick: a retired or free slot
    // holds a reached one.
    sim_assert(readyAt_[slot] >= kParkedBulk, "wake of slot ", slot,
               " in unexpected state");
    readyAt_[slot] = now;
}

void
Core::markBulkWait(std::uint16_t slot)
{
    if (readyAt_[slot] == kParked)
        readyAt_[slot] = kParkedBulk;
}

void
Core::resetStats(Tick now)
{
    retiredAtWindowStart_ = retired_;
    windowStart_ = now;
    robOccupancySum_ = 0;
    dispatchStalls_ = 0;
    cpi_.fill(0);
}

double
Core::ipc(Tick now) const
{
    if (now <= windowStart_)
        return 0.0;
    return static_cast<double>(retired_ - retiredAtWindowStart_) /
           static_cast<double>(now - windowStart_);
}

void
Core::registerStats(StatRegistry &registry) const
{
    StatGroup &g =
        registry.group("cpu/core/" + std::to_string(unsigned{id_}));
    g.addGauge("retired",
               [this] { return static_cast<double>(retired_); });
    g.addGauge("retired_in_window", [this] {
        return static_cast<double>(retiredInWindow());
    });
    g.addGauge("dispatch_stalls", [this] {
        return static_cast<double>(dispatchStalls_);
    });
    g.addGauge("rob_occupancy_sum", [this] {
        return static_cast<double>(robOccupancySum_);
    });
    const auto cpi = [this](CpiBucket bucket) {
        return [this, bucket] {
            return static_cast<double>(cpiCycles(bucket));
        };
    };
    g.addGauge("cpi_compute", cpi(CpiBucket::Compute));
    g.addGauge("cpi_crit_wait", cpi(CpiBucket::CritWait));
    g.addGauge("cpi_bulk_wait", cpi(CpiBucket::BulkWait));
    g.addGauge("cpi_rob_full", cpi(CpiBucket::RobFull));
    g.addGauge("cpi_dispatch_stall", cpi(CpiBucket::DispatchStall));
}

} // namespace hetsim::cpu
