#include "common/logging.hh"

#include <cstdlib>

#include "common/log.hh"

namespace ccm
{

namespace detail
{

// panic/fatal terminate the process, so they bypass the threshold:
// the one line explaining the exit must never be filtered out.

void
panicImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error, concat("panic: ", msg, " @ ", file, ":",
                                     line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error, concat("fatal: ", msg, " @ ", file, ":",
                                     line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    CCM_LOG_WARN("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    CCM_LOG_INFO(msg);
}

} // namespace detail

} // namespace ccm
