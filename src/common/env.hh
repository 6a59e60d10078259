/**
 * @file
 * Strict parsing of HETSIM_* environment knobs.  An unset or empty
 * variable yields the caller's fallback; any other value must parse
 * completely, or the run stops up front with fatal() naming the
 * variable and the bad value — `HETSIM_READS=4k` is an error, not a
 * quantum of 4, and `HETSIM_CHECK=no` is an error, not "on".
 */

#ifndef HETSIM_COMMON_ENV_HH
#define HETSIM_COMMON_ENV_HH

#include <cstdint>

namespace hetsim
{

/** @p name as an on/off switch (0|1|false|true|off|on), or @p fallback
 *  when unset. */
bool envFlag(const char *name, bool fallback);

/** @p name as a base-10 unsigned integer no smaller than @p min, or
 *  @p fallback when unset. */
std::uint64_t envU64(const char *name, std::uint64_t fallback,
                     std::uint64_t min = 0);

} // namespace hetsim

#endif // HETSIM_COMMON_ENV_HH
