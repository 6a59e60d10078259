/**
 * @file
 * The canonical per-request phase catalogue of the latency attribution
 * (per-request phase histograms, per-core CPI stacks; DESIGN.md
 * section 12).
 */

#ifndef HETSIM_COMMON_ATTRIB_HH
#define HETSIM_COMMON_ATTRIB_HH

#include <cstdint>

namespace hetsim::attrib
{

/**
 * Phases of one demand read through the DRAM controller, in timeline
 * order.  The four channel phases partition [enqueue, complete] exactly
 * (see dram::MemRequest's phase accessors and DESIGN.md section 12);
 * the remaining entries label the processor-side and fill-level spans
 * emitted to the tracer.
 */
enum class Phase : std::uint8_t {
    QueueWait,  ///< enqueue -> first command steered by the request
    Prep,       ///< first PRE/ACT steered by the request -> column
    Cas,        ///< column command -> data burst start (tRL / tWL)
    Bus,        ///< data burst occupancy (tBurst)
    MshrWait,   ///< secondary miss joined an in-flight MSHR -> wake
    BulkWait,   ///< CWF fill: fast fragment arrival -> slow fragment
    Reassembly, ///< CWF fill: SECDED + fragment merge (modelled 0-cost)
};

const char *toString(Phase phase);

} // namespace hetsim::attrib

#endif // HETSIM_COMMON_ATTRIB_HH
