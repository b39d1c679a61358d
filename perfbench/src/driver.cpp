// perfbench_driver: runs one benchmark workload and prints one JSON report
// line (host block, every metric it measured, attempted and failed
// operations). perfbench/run.py builds it, runs it and selects the metrics
// BENCHMARK.json names.
//
//   perfbench_driver --workload mc_fig6 --seed 1 --seconds 25 --trace 0
//       --serve-exe PATH --work-dir DIR [--commit DIGEST]

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.hpp"

using namespace perfbench;

namespace {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--serve-exe") {
      a.serve_exe = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::runtime_error("--seconds is required, in (0, 600]");
  }
  return a;
}

void write_metrics(nubb::JsonWriter& w, const std::string& key,
                   const std::map<std::string, Metric>& metrics) {
  w.key(key);
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Outcome out;
    if (args.workload == "mc_fig6") {
      out = run_offline(args);
    } else if (args.workload == "serve_mixed") {
      if (args.serve_exe.empty()) throw std::runtime_error("serve_mixed needs --serve-exe");
      out = run_served(args);
    } else {
      throw std::runtime_error("unknown workload " + args.workload +
                               " (mc_fig6 | serve_mixed)");
    }

    std::ostringstream line;
    nubb::JsonWriter w(line);
    w.begin_object();
    w.kv("workload", args.workload);
    w.kv("trace", args.trace);
    w.key("host");
    write_host_block(w, args);
    w.kv("attempted", out.attempted);
    w.kv("failed", out.failed);
    w.kv("fail_frac", out.attempted ? static_cast<double>(out.failed) / out.attempted : 1.0);
    w.key("failures");
    w.begin_array();
    for (const std::string& f : out.failures) w.value(f);
    w.end_array();
    write_metrics(w, "end_to_end", out.end_to_end);
    write_metrics(w, "per_layer", out.per_layer);
    write_metrics(w, "report_only", out.report_only);
    w.end_object();
    std::cout << line.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
