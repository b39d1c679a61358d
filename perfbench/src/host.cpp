#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

std::string first_line_with(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

std::string after_colon(const std::string& line) {
  const auto colon = line.find(':');
  if (colon == std::string::npos) return "";
  const auto start = line.find_first_not_of(" \t", colon + 1);
  return start == std::string::npos ? "" : line.substr(start);
}

double status_kb(const std::string& path, const std::string& key) {
  const std::string line = first_line_with(path, key);
  if (line.empty()) return 0.0;
  return std::strtod(after_colon(line).c_str(), nullptr);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_peak_rss_mb() { return status_kb("/proc/self/status", "VmHWM:") / 1024.0; }

double pid_cpu_seconds(int pid) {
  // Fields 14 and 15 of /proc/PID/stat are utime and stime in clock ticks;
  // field 2 (comm) may hold spaces, so count from its closing parenthesis.
  const std::string stat = read_first_line("/proc/" + std::to_string(pid) + "/stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double pid_peak_rss_mb(int pid) {
  return status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM:") / 1024.0;
}

std::size_t pool_workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

void write_host_block(nubb::JsonWriter& w, const Args& args) {
  const char* simd_env = std::getenv("NUBB_SIMD");
  std::string thp = read_first_line("/sys/kernel/mm/transparent_hugepage/enabled");
  const auto lb = thp.find('[');
  const auto rb = thp.find(']');
  if (lb != std::string::npos && rb != std::string::npos && rb > lb) {
    thp = thp.substr(lb + 1, rb - lb - 1);
  }
  w.begin_object();
  w.kv("cpu_model", after_colon(first_line_with("/proc/cpuinfo", "model name")));
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("compiler", std::string(__VERSION__));
  w.kv("cxx_flags", std::string(PERFBENCH_CXX_FLAGS));
  w.kv("build_type", std::string(PERFBENCH_BUILD_TYPE));
  w.kv("resolve_simd", nubb::to_string(nubb::resolve_simd(nubb::SimdMode::kAuto)));
  w.kv("nubb_simd_env", std::string(simd_env ? simd_env : ""));
  w.kv("huge_pages", std::string("auto; thp=") + (thp.empty() ? "unknown" : thp));
  w.kv("commit", args.commit);
  w.kv("seed", args.seed);
  w.end_object();
}

}  // namespace perfbench
