/**
 * @file
 * End-to-end latency attribution invariants (DESIGN.md section 12):
 *
 *  - the per-request phase ledger (queue/prep/cas/bus) partitions
 *    [enqueue, complete] exactly for every completed read, including
 *    write-forwarded and compound (RLDRAM) accesses;
 *  - the per-core CPI stacks tile the measurement window exactly —
 *    every cycle lands in exactly one bucket — with the main loop plain
 *    or self-profiled, and the stacks are bit-identical across both;
 *  - the Chrome trace-event export is a well-formed JSON array with
 *    complete-span ("ph":"X") phase events.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "check/checker.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "dram/channel.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;
using check::Checker;
using check::Mode;

namespace
{

/** Drive randomized read/write traffic through a raw two-rank DDR3
 *  channel until it drains, asserting the ledger invariant on every
 *  completed read.  Returns the number of completed reads. */
unsigned
drainRawChannel()
{
    const dram::DeviceParams dev = dram::DeviceParams::ddr3_1600();
    dram::Channel chan("attrib", dev, 2);

    unsigned completed = 0;
    chan.setCallback([&completed](dram::MemRequest &req) {
        completed += 1;
        // Stamp monotonicity over the whole service path.
        ASSERT_GE(req.columnIssue, req.enqueue);
        if (req.prepIssue != kTickNever) {
            ASSERT_GE(req.prepIssue, req.enqueue);
            ASSERT_GE(req.columnIssue, req.prepIssue);
        }
        ASSERT_GE(req.dataStart, req.columnIssue);
        ASSERT_GE(req.complete, req.dataStart);
        // The four phases tile [enqueue, complete] exactly.
        EXPECT_EQ(req.queuePhase() + req.prepPhase() + req.casPhase() +
                      req.busPhase(),
                  req.totalLatency())
            << "ledger does not partition request " << req.id;
    });

    Rng rng(0x5eedULL);
    std::uint64_t id = 0;
    auto inject = [&](AccessType type, Tick now) {
        dram::MemRequest req;
        req.id = id;
        req.cookie = id;
        req.lineAddr = (id++) * 64ULL;
        req.type = type;
        req.coord = dram::DramCoord{
            0, static_cast<std::uint8_t>(rng.below(2)),
            static_cast<std::uint8_t>(rng.below(dev.banksPerRank)),
            static_cast<std::uint32_t>(rng.below(32)),
            static_cast<std::uint32_t>(rng.below(dev.lineColsPerRow))};
        chan.enqueue(req, now);
    };

    Tick t = 0;
    for (unsigned c = 0; c < 2'000; ++c, t += dev.clockDivider) {
        if (c < 1'000 && chan.pendingReads() < 16 &&
            chan.canAccept(AccessType::Read)) {
            inject(rng.chance(0.2) ? AccessType::Prefetch
                                   : AccessType::Read,
                   t);
        }
        if (c < 1'000 && chan.pendingWrites() < 8 &&
            chan.canAccept(AccessType::Write)) {
            inject(AccessType::Write, t);
        }
        chan.tick(t);
    }
    while (!chan.idle() && t < 10'000'000) {
        chan.tick(t);
        t += dev.clockDivider;
    }
    EXPECT_TRUE(chan.idle()) << "channel failed to drain";
    EXPECT_GT(chan.stats().phaseQueueHist.total(), 0u);
    return completed;
}

TEST(PhaseLedger, PartitionsLatencyOnRawChannelBothSchedulers)
{
    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);
    const unsigned completed = drainRawChannel();
    EXPECT_TRUE(checker.violations().empty()) << checker.report();
    checker.disable();
    EXPECT_GT(completed, 100u);
}

TEST(PhaseLedger, WriteForwardedReadDegeneratesToBusPhase)
{
    const dram::DeviceParams dev = dram::DeviceParams::ddr3_1600();
    dram::Channel chan("attrib_fw", dev, 2);

    bool saw_forward = false;
    chan.setCallback([&saw_forward](dram::MemRequest &req) {
        if (req.id != 7)
            return;
        saw_forward = true;
        EXPECT_EQ(req.queuePhase(), 0u);
        EXPECT_EQ(req.prepPhase(), 0u);
        EXPECT_EQ(req.casPhase(), 0u);
        EXPECT_EQ(req.busPhase(), req.totalLatency());
        EXPECT_GT(req.totalLatency(), 0u);
    });

    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);
    dram::MemRequest wr;
    wr.id = 3;
    wr.cookie = 3;
    wr.lineAddr = 0x1000;
    wr.type = AccessType::Write;
    wr.coord = dram::DramCoord{0, 0, 1, 5, 2};
    chan.enqueue(wr, 0);

    // Same line while the write is still queued: served by forwarding.
    dram::MemRequest rd = wr;
    rd.id = 7;
    rd.cookie = 7;
    rd.type = AccessType::Read;
    chan.enqueue(rd, 0);

    Tick t = 0;
    while (!chan.idle() && t < 1'000'000) {
        chan.tick(t);
        t += dev.clockDivider;
    }
    EXPECT_TRUE(checker.violations().empty()) << checker.report();
    checker.disable();
    EXPECT_TRUE(saw_forward);
}

TEST(PhaseLedger, CheckerFlagsCorruptLedger)
{
    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);

    // Non-monotone stamps.
    dram::MemRequest bad;
    bad.id = 1;
    bad.enqueue = 100;
    bad.prepIssue = 90;
    bad.columnIssue = 120;
    bad.dataStart = 130;
    bad.complete = 140;
    check::onPhaseLedger("neg", bad);
    EXPECT_EQ(checker.count(check::Rule::PhaseLedger), 1u);

    // Completed request with no column/data stamps: phase sum is zero
    // while the end-to-end latency is not.
    dram::MemRequest hole;
    hole.id = 2;
    hole.enqueue = 100;
    hole.complete = 200;
    check::onPhaseLedger("neg", hole);
    EXPECT_EQ(checker.count(check::Rule::PhaseLedger), 2u);
    checker.disable();
}

// ---------------- CPI stacks on a whole system -----------------------

struct CpiRun
{
    std::vector<std::vector<std::uint64_t>> stacks; ///< [core][bucket]
    Tick windowTicks = 0;
};

CpiRun
runCpiSystem(bool profiled)
{
    SystemParams p;
    p.mem = MemConfig::CwfRL;
    p.seed = 0xbeefULL;
    const auto &profile = workloads::suite::byName("mcf");
    RunConfig rc;
    rc.measureReads = 600;
    rc.warmupReads = 200;

    System system(p, profile, p.cores);
    system.setProfiling(profiled);
    const RunResult r = runSimulation(system, rc);
    EXPECT_GT(r.demandReads, 0u);

    CpiRun out;
    out.windowTicks = system.now() - system.windowStart();
    for (unsigned c = 0; c < system.activeCores(); ++c) {
        std::vector<std::uint64_t> stack;
        for (unsigned b = 0; b < cpu::Core::kCpiBuckets; ++b) {
            stack.push_back(system.core(c).cpiCycles(
                static_cast<cpu::Core::CpiBucket>(b)));
        }
        out.stacks.push_back(std::move(stack));
    }
    return out;
}

TEST(CpiStack, BucketsTileTheWindowAcrossEnginesModesAndSchedulers)
{
    auto &checker = Checker::instance();
    checker.enable(Mode::Collect);

    // Main-loop mode (plain or self-profiled tick): the CPI attribution
    // (like the reports) must not see it.
    std::vector<CpiRun> runs;
    for (const bool profiled : {false, true})
        runs.push_back(runCpiSystem(profiled));
    EXPECT_TRUE(checker.violations().empty()) << checker.report();
    checker.disable();

    for (const CpiRun &run : runs) {
        ASSERT_GT(run.windowTicks, 0u);
        for (const auto &stack : run.stacks) {
            std::uint64_t sum = 0;
            for (const std::uint64_t cycles : stack)
                sum += cycles;
            // Every window cycle lands in exactly one bucket.
            EXPECT_EQ(sum, static_cast<std::uint64_t>(run.windowTicks));
            EXPECT_GT(stack[static_cast<unsigned>(
                          cpu::Core::CpiBucket::Compute)],
                      0u);
        }
    }
    // The attribution must be bit-identical across loop modes (same
    // contract as the reports).
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].windowTicks, runs[0].windowTicks);
        EXPECT_EQ(runs[i].stacks, runs[0].stacks) << "run " << i;
    }
    // mcf on CwfRL is memory bound: the stacks must attribute waits.
    std::uint64_t mem_wait = 0;
    for (const auto &stack : runs[0].stacks) {
        mem_wait +=
            stack[static_cast<unsigned>(cpu::Core::CpiBucket::CritWait)];
        mem_wait +=
            stack[static_cast<unsigned>(cpu::Core::CpiBucket::BulkWait)];
    }
    EXPECT_GT(mem_wait, 0u);
}

// ---------------- Chrome trace export --------------------------------

TEST(ChromeTrace, ExportIsAWellFormedEventArray)
{
    const std::string path = "test_attrib_chrome.json";
    auto &tracer = trace::Tracer::instance();
    tracer.enableFileSink(path, trace::Format::Chrome);

    SystemParams p;
    p.mem = MemConfig::CwfRL;
    p.seed = 7ULL;
    const auto &profile = workloads::suite::byName("mcf");
    RunConfig rc;
    rc.measureReads = 200;
    rc.warmupReads = 50;
    System system(p, profile, p.cores);
    (void)runSimulation(system, rc);
    tracer.disable();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    ASSERT_FALSE(text.empty());

    // Strict-JSON array framing.
    EXPECT_EQ(text.front(), '[');
    const auto last = text.find_last_not_of(" \n\r\t");
    ASSERT_NE(last, std::string::npos);
    EXPECT_EQ(text[last], ']');

    // Balanced braces (no parser in-tree; CI validates with python3).
    long depth = 0;
    bool in_string = false;
    for (const char c : text) {
        if (c == '"')
            in_string = !in_string;
        if (in_string)
            continue;
        if (c == '{')
            depth += 1;
        if (c == '}')
            depth -= 1;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // Phase complete-spans, async fill spans, and instants all present.
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"queue_wait\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"bus\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
