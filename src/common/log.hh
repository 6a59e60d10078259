/**
 * @file
 * Minimal gem5-style status/error reporting: panic(), fatal(), warn(),
 * inform().
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a user
 * configuration error and exits cleanly with a non-zero status.  Both are
 * printf-style variadic templates built on std::format-like streaming to
 * avoid a formatting dependency.
 */

#ifndef HETSIM_COMMON_LOG_HH
#define HETSIM_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace hetsim
{

namespace detail
{

/** Fold any streamable argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** True while a death-test/unit-test wants fatal() to throw instead of
 *  exit(); see log.cc. */
void setLogThrowOnError(bool enable);

/** Thrown instead of terminating when setLogThrowOnError(true) is active. */
struct SimError
{
    std::string message;
};

} // namespace hetsim

#define panic(...)                                                         \
    ::hetsim::detail::panicImpl(__FILE__, __LINE__,                        \
                                ::hetsim::detail::concat(__VA_ARGS__))

#define fatal(...)                                                         \
    ::hetsim::detail::fatalImpl(__FILE__, __LINE__,                        \
                                ::hetsim::detail::concat(__VA_ARGS__))

#define warn(...)                                                          \
    ::hetsim::detail::warnImpl(::hetsim::detail::concat(__VA_ARGS__))

#define inform(...)                                                        \
    ::hetsim::detail::informImpl(::hetsim::detail::concat(__VA_ARGS__))

/** gem5-style always-on sanity check (independent of NDEBUG). */
#define sim_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            panic("assertion '", #cond, "' failed. ",                      \
                  ::hetsim::detail::concat(__VA_ARGS__));                  \
        }                                                                  \
    } while (0)

#endif // HETSIM_COMMON_LOG_HH
