#include "report/sinks.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/config.hpp"
#include "util/csv.hpp"

namespace bsld::report {

namespace {

/// Minimal JSON string escaping: quotes, backslashes and control bytes.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> result_row_headers() {
  return {"index",        "run",       "cpus",        "avg_bsld",
          "avg_wait_s",   "reduced",   "boosted",     "energy_comp_j",
          "energy_total_j", "makespan_s", "utilization"};
}

std::vector<std::string> result_row(std::size_t index,
                                    const RunResult& result) {
  const sim::SimulationResult& sim = result.sim();
  return {std::to_string(index),
          result.spec.label(),
          std::to_string(sim.cpus),
          util::fmt_double(sim.avg_bsld, 4),
          util::fmt_double(sim.avg_wait, 1),
          std::to_string(sim.reduced_jobs),
          std::to_string(sim.boosted_jobs),
          util::fmt_double(sim.energy.computational_joules, 0),
          util::fmt_double(sim.energy.total_joules, 0),
          std::to_string(sim.makespan),
          util::fmt_double(sim.utilization, 4)};
}

CsvResultSink::CsvResultSink(std::ostream& out) : out_(out) {
  util::CsvWriter(out_).write_row(result_row_headers());
}

void CsvResultSink::on_result(std::size_t index, const RunResult& result) {
  util::CsvWriter(out_).write_row(result_row(index, result));
}

JsonlResultSink::JsonlResultSink(std::ostream& out) : out_(out) {}

void JsonlResultSink::on_result(std::size_t index, const RunResult& result) {
  const sim::SimulationResult& sim = result.sim();
  std::ostringstream line;
  line << "{\"index\":" << index
       << ",\"run\":\"" << json_escape(result.spec.label())
       << "\",\"workload\":\"" << json_escape(sim.workload)
       << "\",\"policy\":\"" << json_escape(sim.policy)
       << "\",\"cpus\":" << sim.cpus
       << ",\"jobs\":" << sim.job_count
       << ",\"avg_bsld\":" << util::config_double(sim.avg_bsld)
       << ",\"avg_wait_s\":" << util::config_double(sim.avg_wait)
       << ",\"reduced\":" << sim.reduced_jobs
       << ",\"boosted\":" << sim.boosted_jobs
       << ",\"jobs_per_gear\":[";
  for (std::size_t g = 0; g < sim.jobs_per_gear.size(); ++g) {
    if (g != 0) line << ',';
    line << sim.jobs_per_gear[g];
  }
  line << "],\"energy_comp_j\":" << util::config_double(
              sim.energy.computational_joules)
       << ",\"energy_total_j\":" << util::config_double(
              sim.energy.total_joules)
       << ",\"energy_idle_j\":" << util::config_double(sim.energy.idle_joules)
       << ",\"makespan_s\":" << sim.makespan
       << ",\"utilization\":" << util::config_double(sim.utilization)
       << ",\"events\":" << sim.events_processed;
  if (!result.instruments.empty()) {
    line << ",\"instruments\":[";
    for (std::size_t i = 0; i < result.instruments.size(); ++i) {
      if (i != 0) line << ',';
      line << '"' << json_escape(result.instruments[i]->name()) << '"';
    }
    line << ']';
  }
  line << "}\n";
  out_ << line.str() << std::flush;
}

util::Table result_table(const std::vector<RunResult>& results,
                         const std::vector<std::size_t>& slots) {
  util::Table table(result_row_headers());
  for (std::size_t c = 2; c < result_row_headers().size(); ++c) {
    table.set_align(c, util::Align::kRight);
  }
  for (const std::size_t slot : slots) {
    table.add_row(result_row(slot, results[slot]));
  }
  return table;
}

}  // namespace bsld::report
