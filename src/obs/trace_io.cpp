#include "obs/trace_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "util/atomic_file.h"
#include "util/table.h"

namespace aoft::obs {

namespace {

using json::get_num;
using json::get_str;
using json::Object;

// ---- JSON writing -----------------------------------------------------------

void write_escaped(std::ostream& os, std::string_view s) {
  os << json::escape(s);
}

// Shortest round-trippable decimal: logical clocks are sums of cost-model
// terms, so the same run always prints the same bytes.
std::string fmt_ticks(double v) { return json::shortest_double(v); }

void write_event_jsonl(std::ostream& os, const TraceEvent& e) {
  os << "{\"k\":\"" << to_string(e.kind) << "\",\"n\":" << e.node
     << ",\"s\":" << e.stage << ",\"i\":" << e.iter << ",\"t0\":"
     << fmt_ticks(e.t0) << ",\"t1\":" << fmt_ticks(e.t1) << ",\"a\":" << e.a
     << ",\"b\":" << e.b;
  if (!e.detail.empty()) {
    os << ",\"d\":";
    write_escaped(os, e.detail);
  }
  os << "}\n";
}

// The JSON reader lives in obs/json.h (shared with tools/bench_check).

bool is_verdict(Ev e) {
  return e == Ev::kPhiP || e == Ev::kPhiF || e == Ev::kPhiC ||
         e == Ev::kPairCheck;
}

// ---- Chrome export helpers --------------------------------------------------

// chrome://tracing wants small non-negative thread ids; map the sentinel
// node ids above the cube's label space.
long chrome_tid(std::int32_t node) {
  if (node == kHostNode) return 1000000;
  if (node == kGlobal) return 1000001;
  return node;
}

std::string chrome_name(const TraceEvent& e) {
  std::string name = to_string(e.kind);
  if (e.stage >= 0) {
    name.append(" s");
    name.append(std::to_string(e.stage));
  }
  if (e.iter >= 0) {
    name.append(":");
    name.append(std::to_string(e.iter));
  }
  if (is_verdict(e.kind)) name.append(e.a != 0 ? " ok" : " FAIL");
  return name;
}

}  // namespace

void write_jsonl(std::ostream& os, const TraceMeta& meta, const Tracer& tracer) {
  os << "{\"schema\":\"" << kTraceSchema << "\",\"dim\":" << meta.dim
     << ",\"block\":" << meta.block << ",\"seed\":" << meta.seed
     << ",\"mode\":";
  write_escaped(os, meta.mode);
  if (!meta.transport.empty()) {
    os << ",\"transport\":";
    write_escaped(os, meta.transport);
  }
  os << ",\"events\":" << tracer.size() << "}\n";
  for (const auto& e : tracer.events()) write_event_jsonl(os, e);
}

void write_chrome(std::ostream& os, const TraceMeta& meta, const Tracer& tracer) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Thread-name metadata so Perfetto labels rows "node N" / "host".
  std::vector<std::int32_t> seen;
  for (const auto& e : tracer.events()) {
    if (std::find(seen.begin(), seen.end(), e.node) != seen.end()) continue;
    seen.push_back(e.node);
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << chrome_tid(e.node) << ",\"args\":{\"name\":";
    const std::string label = e.node == kHostNode ? "host"
                              : e.node == kGlobal ? "machine"
                              : "node " + std::to_string(e.node);
    write_escaped(os, label);
    os << "}}";
  }
  for (const auto& e : tracer.events()) {
    sep();
    os << "{\"name\":";
    write_escaped(os, chrome_name(e));
    os << ",\"cat\":\"" << to_string(e.kind) << "\",\"ph\":\""
       << (e.is_span() ? 'X' : 'i') << "\",\"ts\":" << fmt_ticks(e.t0);
    if (e.is_span()) os << ",\"dur\":" << fmt_ticks(e.t1 - e.t0);
    else os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << chrome_tid(e.node)
       << ",\"args\":{\"stage\":" << e.stage << ",\"iter\":" << e.iter
       << ",\"a\":" << e.a << ",\"b\":" << e.b;
    if (!e.detail.empty()) {
      os << ",\"detail\":";
      write_escaped(os, e.detail);
    }
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\""
     << kTraceSchema << "\",\"dim\":" << meta.dim << ",\"block\":" << meta.block
     << ",\"seed\":" << meta.seed << ",\"mode\":";
  write_escaped(os, meta.mode);
  if (!meta.transport.empty()) {
    os << ",\"transport\":";
    write_escaped(os, meta.transport);
  }
  os << "}}\n";
}

bool write_trace_file(const std::string& path, const TraceMeta& meta,
                      const Tracer& tracer, std::string* error) {
  // Serialize fully in memory, then replace the destination atomically
  // (util/atomic_file.h): a crash mid-export must never leave a truncated
  // trace where a previous complete one stood.
  const bool chrome =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ostringstream os;
  if (chrome)
    write_chrome(os, meta, tracer);
  else
    write_jsonl(os, meta, tracer);
  return util::write_file_atomic(path, os.str(), error);
}

std::optional<ParsedTrace> read_jsonl(std::istream& is, std::string* error) {
  auto fail = [&](std::size_t line, const std::string& what) {
    if (error) *error = "line " + std::to_string(line) + ": " + what;
    return std::nullopt;
  };

  std::string line;
  std::size_t lineno = 0;
  ParsedTrace out;
  bool have_header = false;
  std::int64_t declared_events = -1;

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string perr;
    auto v = json::parse(line, &perr);
    if (!v) return fail(lineno, perr);
    if (!v->is_object()) return fail(lineno, "expected a JSON object");
    const auto& obj = v->object();

    if (!have_header) {
      std::string schema;
      if (!get_str(obj, "schema", schema) || schema != kTraceSchema)
        return fail(lineno, "missing or unknown schema header");
      double d = 0, b = 0, s = 0;
      if (!get_num(obj, "dim", d) || !get_num(obj, "block", b) ||
          !get_num(obj, "seed", s))
        return fail(lineno, "header missing dim/block/seed");
      out.meta.dim = static_cast<int>(d);
      out.meta.block = static_cast<std::uint64_t>(b);
      out.meta.seed = static_cast<std::uint64_t>(s);
      get_str(obj, "mode", out.meta.mode);
      get_str(obj, "transport", out.meta.transport);
      double ev_count = -1;
      if (get_num(obj, "events", ev_count))
        declared_events = static_cast<std::int64_t>(ev_count);
      have_header = true;
      continue;
    }

    TraceEvent e;
    std::string kind;
    if (!get_str(obj, "k", kind) || !ev_from_string(kind, e.kind))
      return fail(lineno, "missing or unknown event kind");
    double n = 0, s = 0, i = 0, t0 = 0, t1 = 0, a = 0, b = 0;
    if (!get_num(obj, "n", n) || !get_num(obj, "s", s) ||
        !get_num(obj, "i", i) || !get_num(obj, "t0", t0) ||
        !get_num(obj, "t1", t1) || !get_num(obj, "a", a) ||
        !get_num(obj, "b", b))
      return fail(lineno, "event missing a required field (n/s/i/t0/t1/a/b)");
    e.node = static_cast<std::int32_t>(n);
    e.stage = static_cast<std::int32_t>(s);
    e.iter = static_cast<std::int32_t>(i);
    e.t0 = t0;
    e.t1 = t1;
    e.a = static_cast<std::int64_t>(a);
    e.b = static_cast<std::int64_t>(b);
    get_str(obj, "d", e.detail);

    if (e.node < kGlobal) return fail(lineno, "node id below -2");
    if (e.t1 < e.t0) return fail(lineno, "span ends before it starts");
    if (e.t0 < 0.0) return fail(lineno, "negative timestamp");
    if (is_verdict(e.kind) && e.a != 0 && e.a != 1)
      return fail(lineno, "verdict payload must be 0 or 1");
    out.events.push_back(std::move(e));
  }

  if (!have_header) {
    if (error) *error = "empty file (no schema header)";
    return std::nullopt;
  }
  if (declared_events >= 0 &&
      declared_events != static_cast<std::int64_t>(out.events.size())) {
    if (error)
      *error = "header declares " + std::to_string(declared_events) +
               " events, file has " + std::to_string(out.events.size());
    return std::nullopt;
  }
  return out;
}

bool validate_chrome(std::istream& is, std::string* error,
                     std::size_t* events) {
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  std::string perr;
  auto v = json::parse(text, &perr);
  if (!v) {
    if (error) *error = perr;
    return false;
  }
  if (!v->is_object()) {
    if (error) *error = "top level is not an object";
    return false;
  }
  const auto& obj = v->object();
  auto it = obj.find("traceEvents");
  if (it == obj.end() || !it->second.is_array()) {
    if (error) *error = "missing traceEvents array";
    return false;
  }
  std::size_t count = 0;
  for (const auto& ev : it->second.array()) {
    if (!ev.is_object()) {
      if (error) *error = "traceEvents[" + std::to_string(count) + "] is not an object";
      return false;
    }
    const auto& eo = ev.object();
    std::string name, ph;
    double ts = 0, pid = 0, tid = 0;
    if (!get_str(eo, "name", name) || !get_str(eo, "ph", ph) ||
        !get_num(eo, "pid", pid) || !get_num(eo, "tid", tid)) {
      if (error)
        *error = "traceEvents[" + std::to_string(count) +
                 "] missing name/ph/pid/tid";
      return false;
    }
    // Metadata events (ph "M") carry no timestamp; everything else must.
    if (ph != "M" && !get_num(eo, "ts", ts)) {
      if (error)
        *error = "traceEvents[" + std::to_string(count) + "] missing ts";
      return false;
    }
    if (ph == "X") {
      double dur = 0;
      if (!get_num(eo, "dur", dur) || dur < 0) {
        if (error)
          *error = "traceEvents[" + std::to_string(count) +
                   "] complete event without non-negative dur";
        return false;
      }
    }
    ++count;
  }
  if (events) *events = count;
  return true;
}

bool validate_trace_file(const std::string& path, std::string* error,
                         std::string* format, std::size_t* events) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  // Sniff: a JSONL trace's first line contains the schema header; a Chrome
  // trace is one (possibly multi-line) object with traceEvents.
  std::string first;
  std::getline(is, first);
  is.seekg(0);
  if (first.find("\"schema\"") != std::string::npos &&
      first.find(kTraceSchema) != std::string::npos) {
    if (format) *format = "jsonl";
    auto parsed = read_jsonl(is, error);
    if (!parsed) return false;
    if (events) *events = parsed->events.size();
    return true;
  }
  if (format) *format = "chrome";
  return validate_chrome(is, error, events);
}

std::string summarize(const ParsedTrace& trace) {
  struct StageRow {
    std::uint64_t spans = 0, iters = 0;
    std::uint64_t phi_pass = 0, phi_fail = 0;
    std::uint64_t ckpts = 0, errors = 0;
    double max_t1 = 0.0;
  };
  std::map<int, StageRow> stages;
  std::uint64_t watchdog = 0, timeouts = 0, drops = 0, errors = 0;
  std::uint64_t scenarios = 0, attempts = 0;
  double elapsed = 0.0;

  for (const auto& e : trace.events) {
    elapsed = std::max(elapsed, e.t1);
    switch (e.kind) {
      case Ev::kStage: {
        auto& r = stages[e.stage];
        ++r.spans;
        r.max_t1 = std::max(r.max_t1, e.t1);
        break;
      }
      case Ev::kIter: ++stages[e.stage].iters; break;
      case Ev::kPhiP:
      case Ev::kPhiF:
      case Ev::kPhiC:
      case Ev::kPairCheck: {
        auto& r = stages[e.stage];
        if (e.a != 0) ++r.phi_pass;
        else ++r.phi_fail;
        break;
      }
      case Ev::kCkptUpload: ++stages[e.stage].ckpts; break;
      case Ev::kError:
        ++errors;
        if (e.stage >= 0) ++stages[e.stage].errors;
        break;
      case Ev::kWatchdogRound: ++watchdog; break;
      case Ev::kTimeout: ++timeouts; break;
      case Ev::kDrop: ++drops; break;
      case Ev::kScenario: ++scenarios; break;
      case Ev::kAttempt: ++attempts; break;
      default: break;
    }
  }

  std::ostringstream os;
  os << "trace: schema=" << kTraceSchema << " dim=" << trace.meta.dim
     << " block=" << trace.meta.block << " seed=" << trace.meta.seed
     << " mode=" << (trace.meta.mode.empty() ? "?" : trace.meta.mode);
  if (!trace.meta.transport.empty())
    os << " transport=" << trace.meta.transport;
  os << " events=" << trace.events.size() << "\n";
  util::Table table({"stage", "spans", "iters", "phi pass", "phi FAIL",
                     "ckpt", "errors", "max t1"});
  for (const auto& [stage, r] : stages)
    table.add_row({util::fmt_int(stage), util::fmt_int(static_cast<long long>(r.spans)),
                   util::fmt_int(static_cast<long long>(r.iters)),
                   util::fmt_int(static_cast<long long>(r.phi_pass)),
                   util::fmt_int(static_cast<long long>(r.phi_fail)),
                   util::fmt_int(static_cast<long long>(r.ckpts)),
                   util::fmt_int(static_cast<long long>(r.errors)),
                   util::fmt_double(r.max_t1, 1)});
  table.print(os);
  os << "totals: errors=" << errors << " watchdog_rounds=" << watchdog
     << " timeouts=" << timeouts << " drops=" << drops;
  if (scenarios > 0) os << " scenarios=" << scenarios;
  if (attempts > 0) os << " attempts=" << attempts;
  os << " elapsed=" << util::fmt_double(elapsed, 1) << " ticks\n";
  return os.str();
}

std::string format_metrics(const MetricsRegistry& m) {
  std::ostringstream os;
  os << "metrics:\n";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (m.get(c) == 0) continue;
    os << "  " << to_string(c) << " = " << m.get(c) << "\n";
  }
  if (!m.per_stage().empty()) {
    os << "  phi verdicts per stage:";
    for (std::size_t s = 0; s < m.per_stage().size(); ++s)
      os << " s" << s << "=" << m.per_stage()[s].pass << "/"
         << m.per_stage()[s].fail;
    os << " (pass/fail)\n";
  }
  if (m.msg_words().total() > 0)
    os << "  msg words: max=" << m.msg_words().max()
       << " msgs=" << m.msg_words().total() << "\n";
  if (m.queue_depth().total() > 0)
    os << "  queue depth: max=" << m.queue_depth().max() << "\n";
  return os.str();
}

}  // namespace aoft::obs
