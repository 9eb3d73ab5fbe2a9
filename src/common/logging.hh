/**
 * @file
 * gem5-flavoured status/error reporting: panic for simulator bugs,
 * fatal for user configuration errors, warn/inform for status.
 */

#ifndef CCM_COMMON_LOGGING_HH
#define CCM_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace ccm
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace ccm

/**
 * Abort the simulation: something happened that should never happen
 * regardless of user input (a simulator bug).
 */
#define ccm_panic(...) \
    ::ccm::detail::panicImpl(__FILE__, __LINE__, \
                             ::ccm::detail::concat(__VA_ARGS__))

/**
 * Terminate the simulation due to a user error (bad configuration,
 * invalid arguments).
 */
#define ccm_fatal(...) \
    ::ccm::detail::fatalImpl(__FILE__, __LINE__, \
                             ::ccm::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define ccm_warn(...) \
    ::ccm::detail::warnImpl(::ccm::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define ccm_inform(...) \
    ::ccm::detail::informImpl(::ccm::detail::concat(__VA_ARGS__))

#endif // CCM_COMMON_LOGGING_HH
