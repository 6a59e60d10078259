/**
 * @file
 * Per-request lifecycle tracer: timestamped events covering the whole
 * demand-read path (core issue -> MSHR allocation -> controller enqueue
 * -> scheduler pick -> bank ACT/CAS -> fast- and slow-fragment arrival
 * -> early wake -> full-line completion) recorded into a ring buffer and
 * drained to a JSONL or Chrome trace-event sink.  The paper's SECDED
 * check on the slow fragment is a modelled zero-cost step and records
 * no event of its own.
 *
 * Cost model: when tracing is disabled (the default) every
 * HETSIM_TRACE_EVENT call is a single load+branch on a global flag.
 * Tracing is enabled either programmatically (tests, tools) or from the
 * environment:
 *
 *   HETSIM_TRACE=1            enable, sink to HETSIM_TRACE_FILE
 *                             (0|1|false|true|off|on; else fatal)
 *   HETSIM_TRACE_FILE=<path>  sink path (default "hetsim_trace.jsonl")
 *   HETSIM_TRACE_FORMAT=chrome  Chrome trace-event JSON (Perfetto /
 *                             chrome://tracing; ticks rendered as µs)
 *                             instead of JSONL
 *
 * Records correlate on `reqId`, the MSHR entry id that follows one fill
 * through every layer (0 for events before allocation / writebacks).
 */

#ifndef HETSIM_COMMON_TRACE_HH
#define HETSIM_COMMON_TRACE_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hetsim::trace
{

/** Lifecycle checkpoints, in canonical request order. */
enum class Event : std::uint8_t {
    CoreIssue,     ///< load issued by a core into the hierarchy
    MshrAlloc,     ///< LLC miss allocated an MSHR entry
    Enqueue,       ///< transaction entered a controller queue
    SchedulerPick, ///< first column command issued for the transaction
    BankAct,       ///< ACTIVATE issued to a bank
    BankCas,       ///< column (CAS / compound) command issued
    FastArrive,    ///< critical-word fragment returned (fast DIMM)
    SlowArrive,    ///< rest-of-line fragment returned (slow DIMM)
    EarlyWake,     ///< a waiting load was woken by the fast fragment
    LineComplete,  ///< whole line (incl. ECC fragment) arrived
    PhaseSpan,     ///< latency-attribution phase interval (detail =
                   ///< attrib::Phase, aux = duration in ticks)
};

const char *toString(Event event);

/** One trace record; 40 bytes, POD. */
struct Record
{
    Tick tick = 0;
    std::uint64_t reqId = 0;  ///< MSHR id; 0 = pre-alloc / writeback
    Addr lineAddr = 0;
    std::uint32_t detail = 0; ///< event-specific (word, bank, flag)
    std::uint32_t aux = 0;    ///< second payload (PhaseSpan duration)
    Event event = Event::CoreIssue;
    std::uint8_t core = 0;
    std::uint8_t channel = 0;
    std::uint8_t part = 0;    ///< dram::MemRequest part tag
};

enum class Format : std::uint8_t { Jsonl, Chrome };

namespace detail
{
/** Hot-path gate; read by the HETSIM_TRACE_EVENT macro.  Atomic so
 *  parallel sweep workers can read it race-free (tracing itself stays
 *  single-run: enable/disable only while no simulations execute). */
extern std::atomic<bool> g_traceEnabled;

/** Cold out-of-line slow path: builds the Record and hands it to the
 *  Tracer.  Kept out of the header — and marked cold/noexcept — so the
 *  not-taken branch at each call site stays a load+test and the call
 *  never perturbs the caller's register allocation or EH paths. */
[[gnu::cold]] void emit(Event event, Tick tick, std::uint64_t req_id,
                        Addr line_addr, unsigned core, unsigned channel,
                        unsigned part, std::uint32_t detail_value,
                        std::uint32_t aux_value = 0) noexcept;
} // namespace detail

class Tracer
{
  public:
    /** Process-wide instance, configured from the environment on first
     *  use (see file header for the knobs). */
    static Tracer &instance();

    bool enabled() const { return detail::g_traceEnabled; }

    /** Records a file sink buffers between flushes. */
    static constexpr std::size_t kFileSinkRing = 65536;

    /** Enable with a file sink; flushes whenever its kFileSinkRing-record
     *  ring fills. */
    void enableFileSink(const std::string &path,
                        Format format = Format::Jsonl);

    /** Enable ring-only capture of @p capacity records (tests/tools);
     *  when the ring is full the oldest records are overwritten.  A later
     *  file sink goes back to kFileSinkRing. */
    void enableInMemory(std::size_t capacity);

    /** Flush and stop recording. */
    void disable();

    void record(const Record &r);

    /** Drain buffered records to the sink (no-op without one). */
    void flush();

    /** Buffered records, oldest first (in-memory mode inspection). */
    std::vector<Record> buffered() const;

    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }
    const std::string &sinkPath() const { return sinkPath_; }

    /** Apply the HETSIM_TRACE* knobs (done once before main); a
     *  malformed value is fatal. */
    void configureFromEnvironment();

    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

  private:
    Tracer();
    void writeRecord(std::ostream &os, const Record &r) const;

    std::vector<Record> ring_;
    std::size_t capacity_ = kFileSinkRing;
    std::size_t head_ = 0;   ///< next write slot (in-memory wrap mode)
    bool wrapped_ = false;
    bool fileSink_ = false;
    Format format_ = Format::Jsonl;
    std::ofstream out_;
    std::string sinkPath_;
    std::uint64_t chromeWritten_ = 0; ///< events emitted into the array
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace hetsim::trace

/**
 * Record one lifecycle event.  Arguments: event, tick, reqId, lineAddr,
 * core, channel, part, detail.  Disabled tracing costs one branch.
 */
#define HETSIM_TRACE_EVENT(ev, tick, req, line, core, chan, part, det)      \
    do {                                                                    \
        if (::hetsim::trace::detail::g_traceEnabled) [[unlikely]] {         \
            ::hetsim::trace::detail::emit((ev), (tick), (req), (line),      \
                                          (core), (chan), (part),           \
                                          static_cast<std::uint32_t>(det)); \
        }                                                                   \
    } while (0)

#endif // HETSIM_COMMON_TRACE_HH
