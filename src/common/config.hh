/**
 * @file
 * Tiny key=value configuration store used to parameterise the examples
 * from their command line.  Environment knobs (HETSIM_*) are not keys
 * here: the library reads them with its own strict parsers.
 *
 * Keys are dotted strings ("sim.reads", "mem.channels").  Values are
 * stored as strings and converted on access with strict validation; a
 * malformed value is a user error and raises fatal().
 */

#ifndef HETSIM_COMMON_CONFIG_HH
#define HETSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsim
{

class Config
{
  public:
    /** Set/overwrite one key. */
    void set(const std::string &key, const std::string &value);

    /** Parse "key=value" tokens (e.g. from argv); other tokens are
     *  returned untouched for the caller to interpret. */
    std::vector<std::string> parseArgs(int argc, const char *const *argv);

    /** parseArgs() for a command line that takes only @p keys: a token
     *  that is not key=value, or a key not in @p keys, is fatal and the
     *  message lists @p keys. */
    void parseArgs(int argc, const char *const *argv,
                   const std::vector<std::string> &keys);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /** All keys, for dump/debug. */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_CONFIG_HH
