/**
 * @file
 * Error-reporting helpers, following the gem5 fatal()/panic() distinction:
 * fatal() is a user error (bad configuration), panic() is a model bug.
 */

#ifndef MCPAT_COMMON_LOGGING_HH
#define MCPAT_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace mcpat {

/** Thrown when a user-supplied configuration is invalid. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error("mcpat: configuration error: " + what)
    {}
};

/** Thrown when the model reaches a state that indicates an internal bug. */
class ModelError : public std::logic_error
{
  public:
    explicit ModelError(const std::string &what)
        : std::logic_error("mcpat: internal model error: " + what)
    {}
};

/**
 * Raise a ConfigError when a user-visible precondition fails.
 *
 * @param cond condition that must hold
 * @param what human-readable description of what the user got wrong
 *
 * The const char * overloads let a literal message reach the check
 * without materializing a std::string, so a passing check in a hot
 * loop allocates nothing.
 */
inline void
fatalIf(bool cond, const char *what)
{
    if (cond)
        throw ConfigError(what);
}

inline void
fatalIf(bool cond, const std::string &what)
{
    if (cond)
        throw ConfigError(what);
}

/**
 * Raise a ModelError when an internal invariant fails.
 */
inline void
panicIf(bool cond, const char *what)
{
    if (cond)
        throw ModelError(what);
}

inline void
panicIf(bool cond, const std::string &what)
{
    if (cond)
        throw ModelError(what);
}

} // namespace mcpat

#endif // MCPAT_COMMON_LOGGING_HH
