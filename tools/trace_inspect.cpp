// trace_inspect — validate, summarize and diff aoft run traces.
//
//   trace_inspect --check FILE      schema-validate (JSONL or Chrome format),
//                                   print "OK format=<f> events=<n>"
//   trace_inspect --summary FILE    per-stage digest of a JSONL trace
//   trace_inspect --diff A B        byte-compare two JSONL traces; prints the
//                                   first differing line (traces are
//                                   deterministic, so equal runs are equal
//                                   files).  The header's transport label
//                                   is the one field allowed to differ
//
// Exit status: 0 = valid / equal, 1 = invalid / different / usage error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "obs/trace_io.h"

namespace {

using namespace aoft;

int check(const std::string& path) {
  std::string error, format;
  std::size_t events = 0;
  if (!obs::validate_trace_file(path, &error, &format, &events)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: OK format=%s events=%zu\n", path.c_str(), format.c_str(),
              events);
  return 0;
}

int summary(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string error;
  auto parsed = obs::read_jsonl(is, &error);
  if (!parsed) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::fputs(obs::summarize(*parsed).c_str(), stdout);
  return 0;
}

// The JSONL header may name the transport that carried the run ("sim" vs
// "shm"); the §11 oracle contract is exactly that the *content* matches
// across transports, so the label is environment metadata, not run content.
// The header's event count needs no mask: equal bodies have equal counts.
bool is_header_line(const std::string& line) {
  return line.rfind("{\"schema\":", 0) == 0;
}

std::string without_transport(std::string s) {
  constexpr std::string_view kField = ",\"transport\":\"";
  const auto tp = s.find(kField);
  if (tp != std::string::npos) {
    const auto end = s.find('"', tp + kField.size());  // value's close quote
    if (end != std::string::npos) s.erase(tp, end - tp + 1);
  }
  return s;
}

int diff(const std::string& a_path, const std::string& b_path) {
  std::ifstream a(a_path), b(b_path);
  if (!a || !b) {
    std::fprintf(stderr, "cannot open %s\n", (!a ? a_path : b_path).c_str());
    return 1;
  }
  bool header_differs = false;
  std::string la, lb;
  std::size_t lineno = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    ++lineno;
    if (!ga && !gb) {
      std::printf("traces identical (%zu lines%s)\n", lineno - 1,
                  header_differs ? ", headers differ only in transport" : "");
      return 0;
    }
    if (ga != gb) {
      std::printf("traces differ: %s ends at line %zu\n",
                  (ga ? b_path : a_path).c_str(), lineno - 1);
      return 1;
    }
    if (la != lb) {
      if (lineno == 1 && is_header_line(la) && is_header_line(lb) &&
          without_transport(la) == without_transport(lb)) {
        header_differs = true;
        continue;
      }
      std::printf("traces differ at line %zu:\n- %s\n+ %s\n", lineno,
                  la.c_str(), lb.c_str());
      return 1;
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --check FILE\n"
               "       %s --summary FILE\n"
               "       %s --diff A B\n",
               argv0, argv0, argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "--check" && argc == 3) return check(argv[2]);
  if (cmd == "--summary" && argc == 3) return summary(argv[2]);
  if (cmd == "--diff" && argc == 4) return diff(argv[2], argv[3]);
  return usage(argv[0]);
}
