#include "core/hetero_memory.hh"

#include <algorithm>

#include "common/log.hh"
#include "power/chip_power.hh"

namespace hetsim::cwf
{

double
aggregatePowerMw(const std::vector<const dram::Channel *> &channels)
{
    double total_pj = 0;
    double window_ns = 0;
    for (const dram::Channel *chan : channels) {
        const power::ChipPowerModel model(chan->params());
        auto activities =
            const_cast<dram::Channel *>(chan)->collectActivity(false);
        for (const auto &act : activities) {
            total_pj += model.rankEnergyPj(act, chan->chipsPerRank());
            window_ns = std::max(
                window_ns,
                static_cast<double>(act.windowTicks) * dram::kTickNs);
        }
    }
    return window_ns > 0 ? total_pj / window_ns : 0.0;
}

LatencySplit
aggregateLatency(const std::vector<const dram::Channel *> &channels)
{
    LatencySplit split;
    double queue_sum = 0, service_sum = 0, total_sum = 0;
    std::uint64_t count = 0;
    for (const dram::Channel *chan : channels) {
        const auto &s = chan->stats();
        queue_sum += s.queueLatency.sum();
        service_sum += s.serviceLatency.sum();
        total_sum += s.totalLatency.sum();
        count += s.queueLatency.count();
    }
    if (count == 0)
        return split;
    split.queueTicks = queue_sum / static_cast<double>(count);
    split.serviceTicks = service_sum / static_cast<double>(count);
    split.totalTicks = total_sum / static_cast<double>(count);
    return split;
}

double
aggregateRowHitRate(const std::vector<const dram::Channel *> &channels)
{
    std::uint64_t hits = 0, misses = 0;
    for (const dram::Channel *chan : channels) {
        hits += chan->stats().rowHits.value();
        misses += chan->stats().rowMisses.value();
    }
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

std::unordered_set<std::uint64_t>
selectHotPages(const std::unordered_map<std::uint64_t, std::uint64_t> &counts,
               std::size_t budget_pages)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
        counts.begin(), counts.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    std::unordered_set<std::uint64_t> hot;
    for (const auto &entry : sorted) {
        if (hot.size() >= budget_pages)
            break;
        hot.insert(entry.first);
    }
    return hot;
}

// ---------------------- HomogeneousMemory ----------------------------

namespace
{

/** The interleaving that suits the device's page policy: row-buffer
 *  locality for open page, bank parallelism for close page. */
dram::AddressMap
mapFor(const dram::DeviceParams &device, unsigned channels, unsigned ranks)
{
    return dram::AddressMap(device.policy == dram::PagePolicy::Open
                                ? dram::MapScheme::OpenPage
                                : dram::MapScheme::ClosePage,
                            channels, ranks, device.banksPerRank,
                            device.rowsPerBank, device.lineColsPerRow);
}

} // namespace

HomogeneousMemory::HomogeneousMemory(
    const Params &params, std::unordered_set<std::uint64_t> hot_pages)
    : params_(params),
      name_(params.hotDevice ? std::string("PagePlacement")
                             : std::string("Homogeneous-") +
                                   dram::toString(params.device.kind)),
      map_(mapFor(params.device, params.channels, params.ranksPerChannel))
{
    const std::string prefix = params_.hotDevice ? "pp.slow" : name_ + ".ch";
    for (unsigned c = 0; c < params_.channels; ++c) {
        channels_.push_back(std::make_unique<dram::Channel>(
            prefix + std::to_string(c), params_.device,
            params_.ranksPerChannel, params_.sched));
    }
    if (params_.hotDevice) {
        hotMap_ = mapFor(*params_.hotDevice, 1, 1);
        hotPages_ = std::move(hot_pages);
        channels_.push_back(std::make_unique<dram::Channel>(
            "pp.fast", *params_.hotDevice, 1, params_.sched));
    }
}

bool
HomogeneousMemory::isHot(Addr line_addr) const
{
    // The tier test comes first: without one, no hash lookup.
    return hotMap_ && hotPages_.count(pageOf(line_addr)) != 0;
}

unsigned
HomogeneousMemory::channelOf(Addr line_addr) const
{
    if (isHot(line_addr))
        return params_.channels;
    return map_.channelOf(line_addr >> kLineShift);
}

dram::DramCoord
HomogeneousMemory::coordOf(Addr line_addr) const
{
    const std::uint64_t line = line_addr >> kLineShift;
    if (isHot(line_addr)) {
        dram::DramCoord coord = hotMap_->decode(line);
        coord.channel = static_cast<std::uint8_t>(params_.channels);
        return coord;
    }
    return map_.decode(line);
}

void
HomogeneousMemory::setCallbacks(Callbacks callbacks)
{
    cb_ = std::move(callbacks);
    for (auto &chan : channels_) {
        chan->setCallback([this](dram::MemRequest &req) {
            if (req.isRead() && cb_.lineCompleted)
                cb_.lineCompleted(req.cookie, req.complete);
        });
    }
}

bool
HomogeneousMemory::canAcceptFill(Addr line_addr) const
{
    return channels_[channelOf(line_addr)]->canAccept(AccessType::Read);
}

void
HomogeneousMemory::requestFill(const FillRequest &request, Tick now)
{
    dram::MemRequest req;
    req.id = nextReqId_++;
    req.lineAddr = request.lineAddr;
    req.type = request.isPrefetch ? AccessType::Prefetch
                                  : AccessType::Read;
    req.coreId = request.coreId;
    req.cookie = request.mshrId;
    req.coord = coordOf(request.lineAddr);
    if (hotMap_) {
        (req.coord.channel == params_.channels ? fastAccesses_
                                               : slowAccesses_)
            .inc();
    }
    channels_[req.coord.channel]->enqueue(req, now);
}

bool
HomogeneousMemory::canAcceptWriteback(Addr line_addr) const
{
    return channels_[channelOf(line_addr)]->canAccept(AccessType::Write);
}

void
HomogeneousMemory::requestWriteback(Addr line_addr, Tick now)
{
    dram::MemRequest req;
    req.id = nextReqId_++;
    req.lineAddr = line_addr;
    req.type = AccessType::Write;
    req.coord = coordOf(line_addr);
    channels_[req.coord.channel]->enqueue(req, now);
}

void
HomogeneousMemory::tick(Tick now)
{
    for (auto &chan : channels_)
        chan->tick(now);
}

bool
HomogeneousMemory::idle() const
{
    return std::all_of(channels_.begin(), channels_.end(),
                       [](const auto &c) { return c->idle(); });
}

std::vector<const dram::Channel *>
HomogeneousMemory::channelViews() const
{
    std::vector<const dram::Channel *> v;
    for (const auto &chan : channels_)
        v.push_back(chan.get());
    return v;
}

void
HomogeneousMemory::resetStats(Tick now)
{
    for (auto &chan : channels_)
        chan->resetStats(now);
    fastAccesses_.reset();
    slowAccesses_.reset();
}

double
HomogeneousMemory::dramPowerMw(Tick) const
{
    return aggregatePowerMw(channelViews());
}

double
HomogeneousMemory::busUtilization(Tick now) const
{
    double sum = 0;
    for (const auto &chan : channels_)
        sum += chan->busUtilization(now);
    return sum / static_cast<double>(channels_.size());
}

LatencySplit
HomogeneousMemory::latencySplit() const
{
    return aggregateLatency(channelViews());
}

double
HomogeneousMemory::rowHitRate() const
{
    return aggregateRowHitRate(channelViews());
}

void
HomogeneousMemory::registerStats(StatRegistry &registry) const
{
    for (const auto &chan : channels_)
        chan->registerStats(registry);
    if (hotMap_) {
        StatGroup &g = registry.group("core/hetero_memory");
        g.addCounter("fast_accesses", &fastAccesses_);
        g.addCounter("slow_accesses", &slowAccesses_);
    }
}

} // namespace hetsim::cwf
