/**
 * @file
 * gem5-style end-of-run statistics report: every counter the simulator
 * kept, grouped by component, rendered as "group.stat value" lines plus
 * the derived headline metrics.
 */

#ifndef HETSIM_SIM_REPORT_HH
#define HETSIM_SIM_REPORT_HH

#include <string>

#include "sim/simulator.hh"
#include "sim/system.hh"

namespace hetsim::sim
{

/** Render the full statistics of a finished measurement window. */
std::string renderReport(System &system, const RunResult &result);

/** Render one machine-readable JSON document for the run: metadata,
 *  the RunResult headline metrics and every registered stat group's
 *  current values. */
std::string renderReportJson(System &system, const RunResult &result);

} // namespace hetsim::sim

#endif // HETSIM_SIM_REPORT_HH
