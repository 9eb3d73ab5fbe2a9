/**
 * @file
 * Checked parsing of unsigned numbers from untrusted text: config
 * file values (serve/config) and command-line flags (ccm-sim).  A
 * token that is not all digits, or a value that does not fit its
 * destination field, is a BadConfig status rather than a silent 0,
 * wrap or truncation.
 */

#ifndef CCM_COMMON_PARSE_NUM_HH
#define CCM_COMMON_PARSE_NUM_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/status.hh"

namespace ccm
{

/** Strict unsigned parse of @p value for @p key: only digits. */
inline Expected<std::uint64_t>
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty())
        return Status::badConfig("key '", key, "' needs a number");
    for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return Status::badConfig("key '", key, "': '", value,
                                     "' is not a number");
    }
    errno = 0;
    const std::uint64_t v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return Status::badConfig("key '", key, "': ", value,
                                 " is out of range");
    return v;
}

/** Store @p v * @p scale in @p field, unless it does not fit. */
template <class T>
Status
storeChecked(const std::string &key, std::uint64_t v, T &field,
             std::uint64_t scale = 1)
{
    if (v > std::numeric_limits<T>::max() / scale)
        return Status::badConfig("key '", key, "': ", v,
                                 " is out of range");
    field = static_cast<T>(v * scale);
    return Status::ok();
}

} // namespace ccm

#endif // CCM_COMMON_PARSE_NUM_HH
