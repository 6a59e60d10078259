/**
 * @file
 * Trace-source tests: parsing (all record kinds, comments, errors),
 * looping, ALU batching, per-core rebasing, and end-to-end runs of
 * trace-driven Systems against the RL memory system.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "common/log.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/trace.hh"

using namespace hetsim;
using workloads::MicroOp;
using workloads::TraceSource;

namespace
{

TEST(TraceParse, AllRecordKinds)
{
    auto t = TraceSource::fromString(R"(# a comment
R 1000
W 2008
D 3f10
N 3
)");
    EXPECT_EQ(t.records(), 4u);

    MicroOp op = t.next();
    EXPECT_TRUE(op.isMem);
    EXPECT_FALSE(op.isWrite);
    EXPECT_EQ(op.addr, 0x1000u);

    op = t.next();
    EXPECT_TRUE(op.isWrite);
    EXPECT_EQ(op.addr, 0x2008u);

    op = t.next();
    EXPECT_TRUE(op.dependsOnPrev);
    EXPECT_EQ(op.addr, 0x3f10u);

    for (int i = 0; i < 3; ++i) {
        op = t.next();
        EXPECT_FALSE(op.isMem) << i;
    }
}

TEST(TraceParse, AddressesAreWordAligned)
{
    auto t = TraceSource::fromString("R 1003\n");
    EXPECT_EQ(t.next().addr, 0x1000u);
}

TEST(TraceParse, LoopsWhenExhausted)
{
    auto t = TraceSource::fromString("R 40\nR 80\n");
    EXPECT_EQ(t.next().addr, 0x40u);
    EXPECT_EQ(t.next().addr, 0x80u);
    EXPECT_EQ(t.next().addr, 0x40u) << "trace must wrap";
}

TEST(TraceParse, RewindRestarts)
{
    auto t = TraceSource::fromString("R 40\nN 5\nR 80\n");
    t.next();
    t.next();
    t.rewind();
    EXPECT_EQ(t.next().addr, 0x40u);
}

TEST(TraceParse, RebaseShiftsAddresses)
{
    auto t = TraceSource::fromString("R 100\n");
    EXPECT_EQ(t.next(1ULL << 30).addr, (1ULL << 30) + 0x100);
}

TEST(TraceParse, MalformedRecordsAreFatal)
{
    setLogThrowOnError(true);
    EXPECT_THROW(TraceSource::fromString("X 100\n"), SimError);
    EXPECT_THROW(TraceSource::fromString("R zz\n"), SimError);
    EXPECT_THROW(TraceSource::fromString("N 0\n"), SimError);
    EXPECT_THROW(TraceSource::fromString("R\n"), SimError);
    setLogThrowOnError(false);
}

TEST(TraceParse, FileRoundTrip)
{
    const std::string path = "/tmp/hetsim_trace_test.txt";
    {
        std::ofstream out(path);
        out << "# demo\nR 1000\nW 1040\nN 2\n";
    }
    auto t = TraceSource::fromFile(path);
    EXPECT_EQ(t.records(), 3u);
    std::remove(path.c_str());
}

TEST(TraceParse, MissingFileIsFatal)
{
    setLogThrowOnError(true);
    EXPECT_THROW(TraceSource::fromFile("/nonexistent/trace.txt"),
                 SimError);
    setLogThrowOnError(false);
}

/** A looping word-0 streaming trace: 256 line reads, 8 ALU ops apart. */
TraceSource
wordZeroStream()
{
    std::string text;
    for (int i = 0; i < 256; ++i) {
        char line[32];
        std::snprintf(line, sizeof(line), "R %llx\nN 8\n",
                      static_cast<unsigned long long>(0x100000 + i * 64));
        text += line;
    }
    return TraceSource::fromString(text);
}

/** Each core replays its own copy of @p trace, rebased into its slice. */
sim::System::SourceFactory
replay(const TraceSource &trace)
{
    return [trace](std::uint8_t, Addr base) {
        return cpu::Core::OpSource(
            [src = trace, base]() mutable { return src.next(base); });
    };
}

/** No warmup; the window runs until @p ticks pass. */
sim::RunConfig
tickWindow(Tick ticks)
{
    sim::RunConfig rc;
    rc.warmupReads = 0;
    rc.measureReads = std::numeric_limits<std::uint64_t>::max();
    rc.maxMeasureTicks = ticks;
    return rc;
}

TEST(TraceDriven, RunsAgainstTheRlMemorySystem)
{
    // A looping word-0 streaming trace through the full stack: trace ->
    // core -> hierarchy -> CWF memory; critical words must be served
    // from the fast DIMM.
    sim::SystemParams params;
    params.mem = sim::MemConfig::CwfRL;
    params.cores = 1;
    sim::System system(params, "word0-stream", 1, replay(wordZeroStream()));
    sim::runSimulation(system, tickWindow(400000));

    EXPECT_EQ(system.now(), 400000u);
    EXPECT_GT(system.core(0).retired(), 1000u);
    const auto &stats = system.hierarchy().stats();
    EXPECT_GT(stats.demandMisses.value(), 100u);
    EXPECT_GT(stats.servedByFast.value(),
              stats.demandMisses.value() / 2)
        << "word-0 trace must hit the fast DIMM";
}

TEST(TraceDriven, EachCoreReplaysInItsOwnGigabyteSlice)
{
    sim::SystemParams params;
    params.mem = sim::MemConfig::CwfRL;
    params.cores = 4;
    params.trackPageCounts = true;
    sim::System system(params, "word0-stream", params.cores,
                       replay(wordZeroStream()));
    const sim::RunResult result =
        sim::runSimulation(system, tickWindow(100000));

    // Every miss of core c lands in [c GB, c+1 GB), and every core's
    // slice sees traffic.
    std::set<std::uint64_t> slices;
    for (const auto &[page, count] : system.hierarchy().pageCounts())
        slices.insert((page << kPageShift) >> 30);
    EXPECT_EQ(slices, (std::set<std::uint64_t>{0, 1, 2, 3}));
    for (unsigned c = 0; c < params.cores; ++c)
        EXPECT_GT(system.core(c).retired(), 1000u) << "core " << c;

    const std::string json = sim::renderReportJson(system, result);
    EXPECT_NE(json.find("\"benchmark\":\"word0-stream\""),
              std::string::npos);
    EXPECT_NE(json.find("\"active_cores\":4"), std::string::npos);
}

} // namespace
