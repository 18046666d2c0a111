// procfs/getrusage readings and the host/build fingerprint (declared in
// common.hpp).
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

namespace {

/// Read a small procfs file into `buf` without touching the heap (these
/// readings run on the generator thread inside measured phases).
std::size_t read_small(const char* path, char* buf, std::size_t cap) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf, cap - 1);
  ::close(fd);
  const std::size_t len = n > 0 ? static_cast<std::size_t>(n) : 0;
  buf[len] = '\0';
  return len;
}

}  // namespace

std::uint64_t task_cpu_ns(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", tid);
  char buf[128];
  if (read_small(path, buf, sizeof(buf)) == 0) return 0;
  return std::strtoull(buf, nullptr, 10);
}

void pin_thread(int tid, std::size_t index) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  (void)sched_setaffinity(tid, sizeof(one), &one);
}

std::vector<int> task_ids() {
  std::vector<int> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

double rss_mib() {
  char buf[128];
  if (read_small("/proc/self/statm", buf, sizeof(buf)) == 0) return 0;
  char* end = nullptr;
  (void)std::strtoull(buf, &end, 10);  // total program size
  const std::uint64_t resident_pages = std::strtoull(end, nullptr, 10);
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang ";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc ";
#else
constexpr const char* kCompiler = "";
#endif

}  // namespace

std::string fingerprint_json() {
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\", "
    << "\"nproc\": " << std::thread::hardware_concurrency() << ", "
    << "\"compiler\": \"" << kCompiler << json_escape(__VERSION__) << "\", "
    << "\"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", "
    << "\"DIP_NATIVE\": \"" << PERFBENCH_NATIVE << "\", "
    << "\"DIP_SIMD_CRYPTO\": \"" << PERFBENCH_SIMD_CRYPTO << "\"}";
  return o.str();
}

}  // namespace perfbench
