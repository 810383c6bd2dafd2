// perfbench: the repository benchmark. Runs one workload and prints every
// metric by name with its unit, then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ledger. Exit status is 0 only when every check passed.
//
//   perfbench --workload rct-mix --seed 1 --seconds 10 --trace 0
//   perfbench --selftest
//
// perfbench/run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nn/gemm.hh"
#include "obs/prof.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::MetricSpec;
using perfbench::RunOptions;
using perfbench::RunReport;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_number(const double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

/// Where and how the numbers were measured.
std::string environment_json(const RunOptions& options) {
  std::string out = "{";
  out += "\"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"gemm_path\": \"" + puffer::nn::gemm_active_path() + "\"";
  out += ", \"puffer_profiling\": \"" +
         std::string(puffer::obs::kProfilingCompiled ? "compiled, gate off"
                                                     : "off") +
         "\"";
  out += ", \"workload\": \"" + json_escape(options.workload) + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"commit\": \"" +
         json_escape(env_or("PERFBENCH_COMMIT", "unknown")) + "\"";
  out += "}";
  return out;
}

std::string result_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct && report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : report.metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + metric.name + "\": {\"value\": " +
           format_number(metric.value) + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void print_report(const RunOptions& options, const RunReport& report) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("%-28s %.6g ratio (%lld of %lld operations)\n",
              "failed_ops_frac", failed_frac,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  for (const Metric& metric : report.metrics) {
    std::printf("%-28s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("# env %s\n", environment_json(options).c_str());
  std::printf("%s\n", result_json(report).c_str());
  std::fflush(stdout);
}

bool report_ok(const RunReport& report) {
  return report.correct && report.failed == 0 && report.attempted > 0;
}

// ------------------------------------------------------------- self-test

int selftest_failures = 0;

void expect(const bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) {
    selftest_failures++;
  }
}

RunOptions tiny(const std::string& workload, const bool trace,
                const int threads) {
  RunOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 0.0;
  options.trace = trace;
  options.threads = threads;
  options.sizes = perfbench::Sizes::tiny();
  options.work_dir = ".bench_build/perfbench-selftest";
  return options;
}

bool emits_exactly(const RunReport& report,
                   const std::vector<MetricSpec>& specs) {
  if (report.metrics.size() != specs.size()) {
    return false;
  }
  for (size_t i = 0; i < specs.size(); i++) {
    if (report.metrics[i].name != specs[i].name ||
        report.metrics[i].unit != specs[i].unit) {
      return false;
    }
  }
  return true;
}

std::map<std::string, double> counts_of(const RunReport& report) {
  std::set<std::string> count_names;
  for (const MetricSpec& spec : perfbench::per_layer_metrics()) {
    if (spec.count) {
      count_names.insert(spec.name);
    }
  }
  std::map<std::string, double> counts;
  for (const Metric& metric : report.metrics) {
    if (count_names.count(metric.name) != 0) {
      counts[metric.name] = metric.value;
    }
  }
  return counts;
}

/// The printed output digests ("digest.trial ...", "digest.days ..."): the
/// fleet's or the campaign's outputs at the run's thread count.
std::vector<std::string> digests_of(const RunReport& report) {
  std::vector<std::string> digests;
  for (const std::string& note : report.notes) {
    if (note.rfind("digest.", 0) == 0) {
      digests.push_back(note);
    }
  }
  return digests;
}

/// Tiny-size runs of every workload: each metric is emitted with its unit,
/// count-type metrics and output digests are identical at 1 and 4 threads,
/// and a driver built with the wrong planner configuration is caught.
int selftest() {
  for (const std::string& workload : perfbench::workload_names()) {
    const RunReport untraced = perfbench::run_workload(tiny(workload, false, -1));
    expect(report_ok(untraced), workload + ": untraced run passes its checks");
    expect(emits_exactly(untraced, perfbench::end_to_end_metrics()),
           workload + ": emits every end-to-end metric with its unit");

    const RunReport one = perfbench::run_workload(tiny(workload, true, 1));
    const RunReport four = perfbench::run_workload(tiny(workload, true, 4));
    expect(report_ok(one) && report_ok(four),
           workload + ": traced runs pass their checks");
    expect(emits_exactly(four, perfbench::per_layer_metrics()),
           workload + ": emits every per-layer metric with its unit");
    const auto counts = counts_of(four);
    expect(!counts.empty() && counts == counts_of(one),
           workload + ": count metrics identical at 1 and 4 threads");
    // On campaign the count metrics come from a one-thread day; its
    // DayStats digest is what the thread count could change.
    expect(!digests_of(four).empty() && digests_of(four) == digests_of(one),
           workload + ": output digests identical at 1 and 4 threads");
    for (const RunReport* report : {&untraced, &one, &four}) {
      if (!report_ok(*report)) {
        for (const std::string& note : report->notes) {
          std::printf("    # %s\n", note.c_str());
        }
      }
    }
  }
  for (const std::string& workload : perfbench::workload_names()) {
    RunOptions wrong = tiny(workload, workload == "campaign", -1);
    wrong.driver_mpc.horizon = 4;  // the registry's schemes plan 5 ahead
    const RunReport report = perfbench::run_workload(wrong);
    if (workload == "bba-cellular") {
      // BBA never consults the planner: the wrong config must go unnoticed.
      expect(report_ok(report),
             workload + ": planner config does not affect a BBA-only trial");
    } else {
      expect(!report.correct && report.failed > 0,
             workload + ": mismatched traced driver is caught");
    }
  }
  std::printf("%s: %d failure(s)\n", selftest_failures == 0 ? "PASS" : "FAIL",
              selftest_failures);
  return selftest_failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rct-mix|bba-cellular|campaign> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <csv>] "
               "[--work-dir <dir>] [--threads <n>]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The simulator's own wall-clock profiling scopes stay compiled in (the
  // repository default) but read no clocks: the benchmark times from outside.
  puffer::obs::set_prof_enabled(false);

  RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return selftest();
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          return usage();
        }
        options.trace = value == "1";
      } else if (arg == "--spans-out") {
        options.spans_out = value;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--threads") {
        options.threads = std::stoi(value);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !(options.seconds >= 0.0)) {
    return usage();
  }
  const RunReport report = perfbench::run_workload(options);
  print_report(options, report);
  return report_ok(report) ? 0 : 1;
}
