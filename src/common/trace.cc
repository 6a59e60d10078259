#include "common/trace.hh"

#include <cstdlib>

#include "common/attrib.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace hetsim::trace
{

namespace detail
{

std::atomic<bool> g_traceEnabled{false};

void
emit(Event event, Tick tick, std::uint64_t req_id, Addr line_addr,
     unsigned core, unsigned channel, unsigned part,
     std::uint32_t detail_value, std::uint32_t aux_value) noexcept
{
    Record r;
    r.tick = tick;
    r.reqId = req_id;
    r.lineAddr = line_addr;
    r.detail = detail_value;
    r.aux = aux_value;
    r.event = event;
    r.core = static_cast<std::uint8_t>(core);
    r.channel = static_cast<std::uint8_t>(channel);
    r.part = static_cast<std::uint8_t>(part);
    Tracer::instance().record(r);
}

} // namespace detail

const char *
toString(Event event)
{
    switch (event) {
      case Event::CoreIssue:
        return "core_issue";
      case Event::MshrAlloc:
        return "mshr_alloc";
      case Event::Enqueue:
        return "enqueue";
      case Event::SchedulerPick:
        return "scheduler_pick";
      case Event::BankAct:
        return "bank_act";
      case Event::BankCas:
        return "bank_cas";
      case Event::FastArrive:
        return "fast_arrive";
      case Event::SlowArrive:
        return "slow_arrive";
      case Event::EarlyWake:
        return "early_wake";
      case Event::LineComplete:
        return "line_complete";
      case Event::PhaseSpan:
        return "phase_span";
    }
    return "?";
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

namespace
{
// The hot-path macro checks g_traceEnabled without touching the
// singleton, so force construction (and thus environment configuration)
// before main() rather than on first recorded event.
[[maybe_unused]] const bool g_envConfigured =
    (Tracer::instance(), true);
} // namespace

Tracer::Tracer()
{
    configureFromEnvironment();
}

Tracer::~Tracer()
{
    if (detail::g_traceEnabled)
        disable();
}

void
Tracer::configureFromEnvironment()
{
    if (!envFlag("HETSIM_TRACE", false))
        return;

    Format format = Format::Jsonl;
    if (const char *fmt = std::getenv("HETSIM_TRACE_FORMAT"); fmt && *fmt) {
        const std::string f(fmt);
        if (f == "chrome")
            format = Format::Chrome;
        else if (f != "jsonl")
            fatal("HETSIM_TRACE_FORMAT: expected jsonl|chrome, got '", fmt,
                  "'");
    }
    const char *path = std::getenv("HETSIM_TRACE_FILE");
    enableFileSink(path ? path : "hetsim_trace.jsonl", format);
}

void
Tracer::enableFileSink(const std::string &path, Format format)
{
    disable();
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_) {
        warn("trace: cannot open sink '", path, "'; tracing stays off");
        return;
    }
    sinkPath_ = path;
    format_ = format;
    fileSink_ = true;
    capacity_ = kFileSinkRing;
    chromeWritten_ = 0;
    if (format_ == Format::Chrome)
        out_ << "[";
    ring_.clear();
    ring_.reserve(capacity_);
    head_ = 0;
    wrapped_ = false;
    recorded_ = 0;
    dropped_ = 0;
    detail::g_traceEnabled = true;
}

void
Tracer::enableInMemory(std::size_t capacity)
{
    disable();
    capacity_ = capacity ? capacity : 1;
    fileSink_ = false;
    ring_.clear();
    ring_.reserve(capacity_);
    head_ = 0;
    wrapped_ = false;
    recorded_ = 0;
    dropped_ = 0;
    detail::g_traceEnabled = true;
}

void
Tracer::disable()
{
    if (detail::g_traceEnabled)
        flush();
    detail::g_traceEnabled = false;
    if (out_.is_open()) {
        // Close the Chrome trace-event array so the sink is strict JSON.
        if (fileSink_ && format_ == Format::Chrome)
            out_ << "\n]\n";
        out_.close();
    }
    fileSink_ = false;
    sinkPath_.clear();
    ring_.clear();
    head_ = 0;
    wrapped_ = false;
}

void
Tracer::record(const Record &r)
{
    recorded_ += 1;
    if (fileSink_) {
        ring_.push_back(r);
        if (ring_.size() >= capacity_)
            flush();
        return;
    }
    // In-memory: fixed-capacity ring, overwrite oldest.
    if (ring_.size() < capacity_) {
        ring_.push_back(r);
    } else {
        ring_[head_] = r;
        wrapped_ = true;
        dropped_ += 1;
    }
    head_ = (head_ + 1) % capacity_;
}

void
Tracer::writeRecord(std::ostream &os, const Record &r) const
{
    if (format_ == Format::Chrome) {
        // Chrome trace-event objects (one per line inside the array that
        // flush()/disable() frame).  Ticks map 1:1 onto the viewer's
        // microsecond axis: a displayed "µs" is one 3.2 GHz tick.
        if (r.event == Event::PhaseSpan) {
            os << "{\"name\":\""
               << attrib::toString(static_cast<attrib::Phase>(r.detail))
               << "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":" << r.tick
               << ",\"dur\":" << r.aux
               << ",\"pid\":1,\"tid\":" << static_cast<unsigned>(r.channel)
               << ",\"args\":{\"req\":" << r.reqId
               << ",\"line\":" << r.lineAddr
               << ",\"part\":" << static_cast<unsigned>(r.part) << "}}";
        } else if (r.event == Event::MshrAlloc ||
                   r.event == Event::LineComplete) {
            // The MSHR fill becomes one async span per request,
            // correlated on reqId and nested under the issuing core.
            os << "{\"name\":\"fill\",\"cat\":\"request\",\"ph\":\""
               << (r.event == Event::MshrAlloc ? 'b' : 'e')
               << "\",\"id\":" << r.reqId << ",\"ts\":" << r.tick
               << ",\"pid\":0,\"tid\":" << static_cast<unsigned>(r.core)
               << ",\"args\":{\"line\":" << r.lineAddr << "}}";
        } else {
            os << "{\"name\":\"" << toString(r.event)
               << "\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
               << r.tick << ",\"pid\":0,\"tid\":"
               << static_cast<unsigned>(r.core)
               << ",\"args\":{\"req\":" << r.reqId
               << ",\"channel\":" << static_cast<unsigned>(r.channel)
               << ",\"detail\":" << r.detail << "}}";
        }
        return;
    }
    os << "{\"tick\":" << r.tick << ",\"event\":\"" << toString(r.event)
       << "\",\"req\":" << r.reqId << ",\"line\":" << r.lineAddr
       << ",\"core\":" << static_cast<unsigned>(r.core)
       << ",\"channel\":" << static_cast<unsigned>(r.channel)
       << ",\"part\":" << static_cast<unsigned>(r.part)
       << ",\"detail\":" << r.detail << ",\"aux\":" << r.aux << "}\n";
}

void
Tracer::flush()
{
    if (!fileSink_ || !out_.is_open()) {
        return;
    }
    for (const Record &r : ring_) {
        if (format_ == Format::Chrome)
            out_ << (chromeWritten_++ ? ",\n" : "\n");
        writeRecord(out_, r);
    }
    out_.flush();
    ring_.clear();
}

std::vector<Record>
Tracer::buffered() const
{
    if (!wrapped_)
        return ring_;
    std::vector<Record> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

} // namespace hetsim::trace
