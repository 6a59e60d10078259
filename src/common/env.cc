#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace hetsim
{

bool
envFlag(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    for (const char *on : {"1", "true", "on"}) {
        if (!std::strcmp(v, on))
            return true;
    }
    for (const char *off : {"0", "false", "off"}) {
        if (!std::strcmp(v, off))
            return false;
    }
    fatal(name, ": expected 0|1|false|true|off|on, got '", v, "'");
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback, std::uint64_t min)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    // strtoull alone would accept leading blanks and a minus sign.
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        std::isdigit(static_cast<unsigned char>(*v))
            ? std::strtoull(v, &end, 10)
            : 0;
    if (end == nullptr || *end || errno == ERANGE)
        fatal(name, ": expected an unsigned integer, got '", v, "'");
    if (parsed < min)
        fatal(name, ": expected an integer >= ", min, ", got '", v, "'");
    return parsed;
}

} // namespace hetsim
