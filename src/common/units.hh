/**
 * @file
 * Physical-unit helpers and constants used throughout McPAT.
 *
 * All model code works in straight SI units: meters, seconds, farads,
 * ohms, amperes, watts, joules, kelvin.  The named multipliers below
 * exist so parameter tables read like the datasheets they came from
 * (e.g. `1100 * uA / um` for an on-current density).
 */

#ifndef MCPAT_COMMON_UNITS_HH
#define MCPAT_COMMON_UNITS_HH

namespace mcpat {

// Scale prefixes.
constexpr double peta = 1e15;
constexpr double tera = 1e12;
constexpr double giga = 1e9;
constexpr double mega = 1e6;
constexpr double kilo = 1e3;
constexpr double milli = 1e-3;
constexpr double micro = 1e-6;
constexpr double nano = 1e-9;
constexpr double pico = 1e-12;
constexpr double femto = 1e-15;
constexpr double atto = 1e-18;

// Length.
constexpr double um = 1e-6;
constexpr double nm = 1e-9;
constexpr double mm = 1e-3;

// Time.
constexpr double ns = 1e-9;
constexpr double ps = 1e-12;

// Capacitance.
constexpr double fF = 1e-15;
constexpr double pF = 1e-12;

// Current.
constexpr double uA = 1e-6;
constexpr double nA = 1e-9;
constexpr double pA = 1e-12;
constexpr double mA = 1e-3;

// Energy.
constexpr double pJ = 1e-12;
constexpr double nJ = 1e-9;

// Frequency.
constexpr double MHz = 1e6;
constexpr double GHz = 1e9;

// Storage.
constexpr double KiB = 1024.0;  ///< bytes

// Area.
constexpr double mm2 = 1e-6;   ///< square millimeters in m^2
constexpr double um2 = 1e-12;  ///< square micrometers in m^2

// Physical constants.
constexpr double eps0 = 8.854e-12;    ///< vacuum permittivity, F/m
constexpr double boltzmann = 1.38064852e-23;  ///< J/K
constexpr double roomTemperature = 300.0;     ///< K

} // namespace mcpat

#endif // MCPAT_COMMON_UNITS_HH
