#include "cpu/core.hh"

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
    rob_.resize(params_.robSize);
}

bool
Core::lastLoadPending(Tick now) const
{
    if (lastLoadSlot_ < 0)
        return false;
    const RobEntry &e = rob_[static_cast<unsigned>(lastLoadSlot_)];
    if (!e.valid || e.seq != lastLoadSeq_)
        return false; // that load already retired
    return !e.ready || e.readyAt > now;
}

void
Core::tick(Tick now)
{
    const std::uint64_t retired_before = retired_;

    // ---- retire ----
    for (unsigned w = 0; w < params_.width && count_ > 0; ++w) {
        RobEntry &head = rob_[head_];
        if (!head.ready || head.readyAt > now)
            break;
        head.valid = false;
        head_ = (head_ + 1) % params_.robSize;
        count_ -= 1;
        retired_ += 1;
    }

    // ---- dispatch ----
    for (unsigned w = 0; w < params_.width; ++w) {
        if (robFull()) {
            dispatchStalls_ += 1;
            break;
        }
        const workloads::MicroOp op =
            pendingOp_ ? *pendingOp_ : source_();

        if (op.isMem && op.dependsOnPrev && lastLoadPending(now)) {
            pendingOp_ = op;
            dispatchStalls_ += 1;
            break;
        }

        const std::uint16_t slot = static_cast<std::uint16_t>(tail_);
        RobEntry entry;
        entry.valid = true;
        entry.seq = ++seqCounter_;

        if (!op.isMem) {
            entry.ready = true;
            entry.readyAt = now + 1;
        } else if (op.isWrite) {
            const cache::Hierarchy::AccessResult res =
                hierarchy_.store(id_, op.addr, now);
            if (res.outcome == cache::Hierarchy::Outcome::Blocked) {
                pendingOp_ = op;
                dispatchStalls_ += 1;
                break;
            }
            entry.ready = true;
            entry.readyAt = res.readyAt;
        } else {
            const cache::Hierarchy::AccessResult res =
                hierarchy_.load(id_, slot, op.addr, now);
            if (res.outcome == cache::Hierarchy::Outcome::Blocked) {
                pendingOp_ = op;
                dispatchStalls_ += 1;
                break;
            }
            entry.isLoad = true;
            if (res.outcome == cache::Hierarchy::Outcome::Ready) {
                entry.ready = true;
                entry.readyAt = res.readyAt;
            } else {
                entry.ready = false;
                entry.bulkWait = res.bulkWait;
            }
            lastLoadSlot_ = static_cast<int>(slot);
            lastLoadSeq_ = entry.seq;
        }

        rob_[tail_] = entry;
        tail_ = (tail_ + 1) % params_.robSize;
        count_ += 1;
        pendingOp_.reset();
    }

    robOccupancySum_ += count_;

    // ---- CPI-stack attribution ----
    const CpiBucket bucket =
        retired_ != retired_before ? CpiBucket::Compute : stallBucket();
    cpi_[static_cast<unsigned>(bucket)] += 1;
}

Core::CpiBucket
Core::stallBucket() const
{
    // Classified from the post-dispatch ROB state alone.
    if (count_ == 0)
        return CpiBucket::DispatchStall;
    const RobEntry &head = rob_[head_];
    if (!head.ready && head.isLoad)
        return head.bulkWait ? CpiBucket::BulkWait : CpiBucket::CritWait;
    if (!head.ready)
        return CpiBucket::DispatchStall;
    return robFull() ? CpiBucket::RobFull : CpiBucket::DispatchStall;
}

void
Core::wake(std::uint16_t slot, Tick now)
{
    RobEntry &entry = rob_[slot];
    sim_assert(entry.valid && entry.isLoad && !entry.ready,
               "wake of slot ", slot, " in unexpected state");
    entry.ready = true;
    entry.readyAt = now;
}

void
Core::markBulkWait(std::uint16_t slot)
{
    RobEntry &entry = rob_[slot];
    if (entry.valid && entry.isLoad && !entry.ready)
        entry.bulkWait = true;
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
