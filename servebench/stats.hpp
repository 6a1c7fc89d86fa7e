// Small numeric and process helpers: quantiles, medians, CPU clocks,
// /proc readers, directory sizes.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace sb {

/// Nearest-rank quantile of `v` (copied and sorted); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Median of repetitions (the mean of the middle two for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// CPU time consumed so far by every thread of the process, in ns. Time
/// a thread spends waiting (blocked, or its virtual CPU preempted by the
/// host) is not counted.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time consumed so far by the calling thread, in ns.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A "key: value kB" field of /proc/self/status, in kB.
inline uint64_t ProcStatusKb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string k;
  while (in >> k) {
    if (k == key) {
      uint64_t kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

/// Bytes this process has passed to write-like syscalls (/proc/self/io
/// wchar), sockets included.
inline uint64_t ProcWchar() {
  std::ifstream in("/proc/self/io");
  std::string k;
  while (in >> k) {
    if (k == "wchar:") {
      uint64_t v = 0;
      in >> v;
      return v;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

inline uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

}  // namespace sb
