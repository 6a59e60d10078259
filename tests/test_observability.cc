/**
 * @file
 * Observability subsystem tests: Histogram percentile edge cases, the
 * component StatRegistry, the lifecycle Tracer (in-memory and file
 * sinks), monotonic per-request event ordering on a real simulation,
 * and the machine-readable JSON report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "dram/request.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

// ------------------------- Histogram --------------------------------

TEST(HistogramPercentile, EmptyHistogramReturnsZero)
{
    const Histogram h(4.0, 16);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(HistogramPercentile, FractionEndpoints)
{
    Histogram h(1.0, 8);
    for (int i = 0; i < 10; ++i)
        h.sample(3.5);
    // All mass is in bucket 3 ([3,4)); fraction 0 lands at its lower
    // edge, fraction 1 at its upper edge.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(HistogramPercentile, SamplesBeyondRangeClampIntoTopBucket)
{
    Histogram h(1.0, 4);
    h.sample(1000.0); // far past the top; must clamp, not crash
    h.sample(2.5);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
    // p100 of a clamped sample is the top bucket's upper edge, i.e. the
    // histogram range, not the raw sample value.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
    // The running mean still uses raw values.
    EXPECT_DOUBLE_EQ(h.mean(), (1000.0 + 2.5) / 2.0);
}

TEST(HistogramPercentile, InterpolatesWithinBucketAndResets)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(5.0); // all in bucket 0
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ------------------------- StatRegistry ------------------------------

TEST(StatRegistryTest, GroupIsCreatedOnceAndFindable)
{
    StatRegistry reg;
    StatGroup &a = reg.group("dram/channel/0");
    StatGroup &b = reg.group("dram/channel/0");
    EXPECT_EQ(&a, &b) << "same name must return the same group";
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.find("dram/channel/0"), &a);
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(StatRegistryTest, ValuesCoverEveryStatKind)
{
    StatRegistry reg;
    Counter c;
    c += 7;
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    Histogram h(1.0, 8);
    h.sample(2.5);
    double gauge_src = 1.25;

    StatGroup &g = reg.group("test/group");
    g.addCounter("events", &c);
    g.addAverage("latency", &a);
    g.addHistogram("delay", &h);
    g.addGauge("level", [&gauge_src] { return gauge_src; });

    const auto values = g.values();
    EXPECT_DOUBLE_EQ(values.at("events"), 7.0);
    EXPECT_DOUBLE_EQ(values.at("latency"), 3.0);
    EXPECT_DOUBLE_EQ(values.at("level"), 1.25);
    EXPECT_DOUBLE_EQ(values.at("delay.count"), 1.0);
    EXPECT_GT(values.at("delay.p95"), 0.0);

    // Values are read live, not snapshotted at registration.
    c += 1;
    gauge_src = 9.0;
    const auto later = g.values();
    EXPECT_DOUBLE_EQ(later.at("events"), 8.0);
    EXPECT_DOUBLE_EQ(later.at("level"), 9.0);

    const std::string text = reg.render();
    EXPECT_NE(text.find("test/group.events 8"), std::string::npos);
    EXPECT_NE(text.find("test/group.delay.p50"), std::string::npos);
}

TEST(StatRegistryTest, GroupsAreOrderedByName)
{
    StatRegistry reg;
    reg.group("zeta");
    reg.group("alpha");
    reg.group("mid");
    const auto groups = reg.groups();
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0]->name(), "alpha");
    EXPECT_EQ(groups[1]->name(), "mid");
    EXPECT_EQ(groups[2]->name(), "zeta");
}

// ------------------------- JSON helpers ------------------------------

TEST(JsonTest, WriterProducesValidDocuments)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("run \"1\"\n");
    w.key("pi").value(3.14159);
    w.key("big").value(std::uint64_t{1} << 60);
    w.key("list").beginArray().value(1).value(2).value(true).endArray();
    w.key("nested").beginObject().key("x").null().endObject();
    w.endObject();
    std::string err;
    EXPECT_TRUE(jsonValid(w.str(), &err)) << err << "\n" << w.str();
}

TEST(JsonTest, ValidatorRejectsMalformedText)
{
    EXPECT_FALSE(jsonValid(""));
    EXPECT_FALSE(jsonValid("{"));
    EXPECT_FALSE(jsonValid("{\"a\":1,}"));
    EXPECT_FALSE(jsonValid("[1 2]"));
    EXPECT_FALSE(jsonValid("{\"a\":1} extra"));
    EXPECT_TRUE(jsonValid("{\"a\":[1,2,{\"b\":null}]}"));
}

// ------------------------- Tracer ------------------------------------

TEST(TracerDeathTest, UnknownFormatListsTheValidOnes)
{
    // An unknown sink format used to fall back to JSONL silently.
    EXPECT_EXIT(
        {
            setenv("HETSIM_TRACE", "1", 1);
            setenv("HETSIM_TRACE_FORMAT", "xml", 1);
            trace::Tracer::instance().configureFromEnvironment();
        },
        ::testing::ExitedWithCode(1),
        "HETSIM_TRACE_FORMAT: expected jsonl\\|chrome, got 'xml'");
}

TEST(TracerTest, InMemoryRingRecordsAndWraps)
{
    auto &tracer = trace::Tracer::instance();
    tracer.enableInMemory(4);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        HETSIM_TRACE_EVENT(trace::Event::Enqueue, Tick{i * 10}, i,
                           Addr{0x40 * i}, 0, 0, 0, 0);
    }
    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.dropped(), 2u);
    const auto records = tracer.buffered();
    ASSERT_EQ(records.size(), 4u);
    // Oldest two were overwritten; the survivors stay in order.
    EXPECT_EQ(records.front().reqId, 3u);
    EXPECT_EQ(records.back().reqId, 6u);
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_LT(records[i - 1].tick, records[i].tick);
    tracer.disable();
    EXPECT_FALSE(tracer.enabled());
}

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    auto &tracer = trace::Tracer::instance();
    tracer.disable();
    const std::uint64_t before = tracer.recorded();
    HETSIM_TRACE_EVENT(trace::Event::BankAct, Tick{1}, 1, Addr{0}, 0, 0,
                       0, 0);
    EXPECT_EQ(tracer.recorded(), before);
}

TEST(TracerTest, FileSinkEmitsValidJsonlLines)
{
    const std::string path = "test_trace_sink.jsonl";
    auto &tracer = trace::Tracer::instance();
    tracer.enableFileSink(path, trace::Format::Jsonl);
    EXPECT_EQ(tracer.sinkPath(), path);
    HETSIM_TRACE_EVENT(trace::Event::MshrAlloc, Tick{5}, 42, Addr{0x1c0},
                       3, 1, 2, 7);
    HETSIM_TRACE_EVENT(trace::Event::LineComplete, Tick{90}, 42,
                       Addr{0x1c0}, 3, 1, 2, 0);
    tracer.disable(); // flushes and closes

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    unsigned lines = 0;
    while (std::getline(in, line)) {
        std::string err;
        EXPECT_TRUE(jsonValid(line, &err)) << err << ": " << line;
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
    in.close();

    std::ifstream again(path);
    std::string first;
    std::getline(again, first);
    EXPECT_NE(first.find("\"event\":\"mshr_alloc\""), std::string::npos);
    EXPECT_NE(first.find("\"req\":42"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TracerTest, FileSinkRingIgnoresAnEarlierInMemoryCapacity)
{
    // A file sink buffers kFileSinkRing records whatever capacity an
    // earlier in-memory capture used, so five records stay buffered
    // (nothing in the file) until disable() flushes them.
    const std::string path = "test_trace_ring.jsonl";
    auto &tracer = trace::Tracer::instance();
    tracer.enableInMemory(4);
    tracer.enableFileSink(path, trace::Format::Jsonl);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        HETSIM_TRACE_EVENT(trace::Event::Enqueue, Tick{i}, i, Addr{0x40},
                           0, 0, 0, 0);
    }
    const auto lines = [&path] {
        std::ifstream in(path);
        unsigned n = 0;
        for (std::string line; std::getline(in, line);)
            ++n;
        return n;
    };
    EXPECT_EQ(lines(), 0u) << "the file sink flushed at the in-memory "
                              "capacity of 4 records";
    tracer.disable();
    EXPECT_EQ(lines(), 5u);
    std::remove(path.c_str());
}

// ---------------- lifecycle ordering on a real run -------------------

TEST(TracerTest, EventNamesAreDistinctSnakeCase)
{
    // JSONL and Chrome consumers match records by name, so every event
    // needs its own lower-case name; the two fragment arrivals are twins.
    using trace::Event;
    std::set<std::string> names;
    for (unsigned e = 0; e <= static_cast<unsigned>(Event::PhaseSpan);
         ++e) {
        const std::string name = trace::toString(static_cast<Event>(e));
        EXPECT_FALSE(name.empty()) << "event " << e;
        for (const char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << name;
        EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    }
    EXPECT_STREQ(trace::toString(Event::FastArrive), "fast_arrive");
    EXPECT_STREQ(trace::toString(Event::SlowArrive), "slow_arrive");
}

TEST(TracerTest, LifecycleEventsAreMonotonicPerRequest)
{
    auto &tracer = trace::Tracer::instance();
    tracer.enableInMemory(1u << 20);

    SystemParams p;
    p.mem = MemConfig::CwfRL;
    System system(p, workloads::suite::byName("leslie3d"), 8);
    RunConfig rc;
    rc.measureReads = 600;
    rc.warmupReads = 600;
    (void)runSimulation(system, rc);

    // MSHR ids are reused, so walk records chronologically and treat
    // each LineComplete as the end of that id's current lifecycle.
    struct Life
    {
        std::optional<Tick> enqueue, pick, slowPick, fast, slow;
    };
    std::map<std::uint64_t, Life> open;
    unsigned checked = 0;
    unsigned with_slow = 0;
    for (const trace::Record &r : tracer.buffered()) {
        if (r.reqId == 0)
            continue;
        Life &life = open[r.reqId];
        switch (r.event) {
          case trace::Event::Enqueue:
            if (!life.enqueue)
                life.enqueue = r.tick;
            break;
          case trace::Event::SchedulerPick:
            if (!life.pick)
                life.pick = r.tick;
            if (r.part == dram::MemRequest::kRestPart && !life.slowPick)
                life.slowPick = r.tick;
            break;
          case trace::Event::FastArrive:
            life.fast = r.tick;
            break;
          case trace::Event::SlowArrive:
            life.slow = r.tick;
            break;
          case trace::Event::LineComplete:
            if (life.enqueue && life.pick && life.fast) {
                EXPECT_LE(*life.enqueue, *life.pick);
                EXPECT_LE(*life.pick, *life.fast);
                EXPECT_LE(*life.fast, r.tick);
                // A slow read forwarded from the write queue issues no
                // column command, so it is bounded by its own pick only
                // when it has one, and by the chain's enqueue always.
                if (life.slow) {
                    EXPECT_LE(*life.enqueue, *life.slow);
                    if (life.slowPick) {
                        EXPECT_LE(*life.slowPick, *life.slow);
                    }
                    EXPECT_LE(*life.slow, r.tick);
                    ++with_slow;
                }
                ++checked;
            }
            open.erase(r.reqId);
            break;
          default:
            break;
        }
    }
    tracer.disable();
    EXPECT_GT(checked, 100u)
        << "expected many complete enqueue->pick->fast->complete chains";
    EXPECT_GT(with_slow, 100u)
        << "expected many checked chains to record their slow fragment";
}

// ------------------------- JSON report -------------------------------

TEST(JsonReportTest, DocumentIsValidAndEnumeratesEveryGroup)
{
    SystemParams p;
    p.mem = MemConfig::CwfRL;
    System system(p, workloads::suite::byName("leslie3d"), 8);
    RunConfig rc;
    rc.measureReads = 500;
    rc.warmupReads = 500;
    const RunResult result = runSimulation(system, rc);

    const std::string doc = renderReportJson(system, result);
    std::string err;
    ASSERT_TRUE(jsonValid(doc, &err)) << err;

    const auto &registry = system.statRegistry();
    EXPECT_GE(registry.size(), 10u)
        << "cores, hierarchy, mshr, channels and controller must all "
           "register";
    for (const StatGroup *group : registry.groups()) {
        EXPECT_NE(doc.find("\"" + group->name() + "\""),
                  std::string::npos)
            << "missing group " << group->name();
    }
    EXPECT_NE(registry.find("cache/hierarchy"), nullptr);
    EXPECT_NE(registry.find("cache/mshr"), nullptr);
    EXPECT_NE(registry.find("core/cwf_controller"), nullptr);
    EXPECT_NE(registry.find("cpu/core/0"), nullptr);

    // Headline metrics ride along.
    EXPECT_NE(doc.find("\"agg_ipc\""), std::string::npos);
    EXPECT_NE(doc.find("\"fast_lead_p50_ticks\""), std::string::npos);
    // A window that reached its quantum says so.
    EXPECT_FALSE(result.capped);
    EXPECT_GE(result.demandReads, rc.measureReads);
    EXPECT_NE(doc.find("\"demand_reads\":" +
                       std::to_string(result.demandReads)),
              std::string::npos);
    EXPECT_NE(doc.find("\"capped\":false"), std::string::npos);
}

TEST(JsonReportTest, PercentilesAgreeWithHierarchyHistogram)
{
    SystemParams p;
    p.mem = MemConfig::CwfRL;
    System system(p, workloads::suite::byName("leslie3d"), 8);
    RunConfig rc;
    rc.measureReads = 500;
    rc.warmupReads = 500;
    const RunResult result = runSimulation(system, rc);

    const auto &h = system.hierarchy().stats();
    EXPECT_DOUBLE_EQ(result.fastLeadP50,
                     h.fastLeadHist.percentile(0.50));
    EXPECT_DOUBLE_EQ(result.missLatencyP99,
                     h.missLatencyHist.percentile(0.99));
    // The p50 of the fast-lead distribution must live in the same
    // regime as its mean: both tens of cycles, not wildly apart.
    EXPECT_GT(result.fastLeadP50, 0.0);
    EXPECT_GT(result.fastLeadTicks, 0.0);
    EXPECT_LT(result.fastLeadP50, result.fastLeadTicks * 4.0);

    const std::string text = renderReport(system, result);
    EXPECT_NE(text.find("components"), std::string::npos);
    EXPECT_NE(text.find("cache/hierarchy."), std::string::npos);
    EXPECT_NE(text.find("run.capped"), std::string::npos);
    EXPECT_NE(text.find("run.demand_reads"), std::string::npos);
}

} // namespace
