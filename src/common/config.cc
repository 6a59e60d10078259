#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace hetsim
{

void
Config::set(const std::string &key, const std::string &value)
{
    sim_assert(!key.empty(), "empty config key");
    entries_[key] = value;
}

std::vector<std::string>
Config::parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            rest.push_back(tok);
            continue;
        }
        set(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return rest;
}

void
Config::parseArgs(int argc, const char *const *argv,
                  const std::vector<std::string> &keys)
{
    std::string valid;
    for (const auto &k : keys)
        valid += (valid.empty() ? "" : ", ") + k;
    const std::vector<std::string> rest = parseArgs(argc, argv);
    if (!rest.empty())
        fatal("argument '", rest.front(), "' is not key=value; valid keys: ",
              valid);
    for (const auto &entry : entries_) {
        if (std::find(keys.begin(), keys.end(), entry.first) == keys.end())
            fatal("unknown config key '", entry.first, "'; valid keys: ",
                  valid);
    }
}

bool
Config::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? fallback : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 0);
    if (errno != 0 || end == it->second.c_str() || *end != '\0')
        fatal("config key '", key, "' has non-integer value '", it->second,
              "'");
    return v;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 0);
    if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
        it->second.front() == '-') {
        fatal("config key '", key, "' has non-unsigned value '", it->second,
              "'");
    }
    return v;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (errno != 0 || end == it->second.c_str() || *end != '\0')
        fatal("config key '", key, "' has non-numeric value '", it->second,
              "'");
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "' has non-boolean value '", it->second, "'");
}

} // namespace hetsim
