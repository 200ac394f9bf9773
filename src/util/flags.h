// Minimal --name=value flag parsing shared by the bench harnesses and small
// tools.  Every bench runs with no arguments at all (the CI default), and
// flags only override.  Anything else is loud (usage message + exit 2): an
// argument the binary does not know (flag_reject_unknown; a typo or a
// deleted flag used to run the defaults silently), and a known flag with an
// unparseable value ("--runs=ten" used to silently become 0 via atoi and
// corrupt a whole bench sweep).

#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace aoft::util {

// Checked numeric parsers.  All require the *entire* string to be consumed
// (no trailing junk), reject empty strings, and report range overflow.
// They set no global state besides errno and never exit — the flag_* helpers
// below layer the loud-usage-error policy on top.

inline bool parse_i64(const char* s, long long& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  out = v;
  return true;
}

inline bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  // strtoull happily wraps "-1" to UINT64_MAX; a negative count is garbage.
  for (const char* p = s; *p != '\0'; ++p)
    if (*p == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

inline bool parse_f64(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  out = v;
  return true;
}

inline const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return argv[i] + len + 1;
  }
  return nullptr;
}

// Exit 2 with a usage line unless every argument is one of the `known`
// --name=value flags.  Call it once, before reading any flag.
inline void flag_reject_unknown(int argc, char** argv,
                                std::initializer_list<const char*> known) {
  for (int i = 1; i < argc; ++i) {
    bool ok = false;
    for (const char* name : known) {
      const std::size_t len = std::strlen(name);
      ok |= std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=';
    }
    if (ok) continue;
    std::fprintf(stderr, "%s: unknown argument \"%s\"\nusage: %s", argv[0],
                 argv[i], argv[0]);
    for (const char* name : known) std::fprintf(stderr, " [%s=...]", name);
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

[[noreturn]] inline void flag_die(const char* name, const char* value,
                                  const char* want) {
  std::fprintf(stderr, "%s: bad value \"%s\" (want %s)\n", name, value, want);
  std::exit(2);
}

inline int flag_int(int argc, char** argv, const char* name, int def) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return def;
  long long parsed = 0;
  if (!parse_i64(v, parsed) || parsed < INT_MIN || parsed > INT_MAX)
    flag_die(name, v, "an integer");
  return static_cast<int>(parsed);
}

inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t def) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return def;
  std::uint64_t parsed = 0;
  if (!parse_u64(v, parsed)) flag_die(name, v, "a non-negative integer");
  return parsed;
}

inline double flag_f64(int argc, char** argv, const char* name, double def) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return def;
  double parsed = 0.0;
  if (!parse_f64(v, parsed)) flag_die(name, v, "a number");
  return parsed;
}

}  // namespace aoft::util
