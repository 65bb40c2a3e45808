// Benchmark entry point: runs one workload and prints its result as the last
// line of standard output, one JSON object.
//
//   perfbench --workload paper-cold|stream-swf|daemon-mixed
//             --seed N --seconds S --trace 0|1
//             --bsldsim PATH --workdir DIR

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

void print_result(const perfbench::Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.correct && outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : outcome.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--bsldsim") args.bsldsim = value;
    else if (key == "--workdir") args.workdir = value;
    else {
      std::cerr << "perfbench: unknown argument " << key << '\n';
      return 2;
    }
  }
  if (args.workdir.empty()) args.workdir = ".bench_run";
  std::filesystem::create_directories(args.workdir);

  perfbench::note(std::string("build type ") + PERFBENCH_BUILD_TYPE);
  perfbench::Outcome outcome;
  try {
    if (args.workload == "paper-cold") {
      perfbench::paper_cold(args, outcome);
    } else if (args.workload == "stream-swf") {
      perfbench::stream_swf(args, outcome);
    } else if (args.workload == "daemon-mixed") {
      perfbench::daemon_mixed(args, outcome);
    } else {
      std::cerr << "perfbench: unknown workload `" << args.workload << "`\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << args.workload << " failed: " << error.what()
              << '\n';
    return 1;
  }
  if (args.trace) perfbench::add_missing_layer_metrics(outcome);
  print_result(outcome);
  return 0;
}
