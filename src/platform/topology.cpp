#include "src/platform/topology.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace lockin {
namespace {

// Reads a small integer file like /sys/devices/system/cpu/cpu0/topology/core_id.
// Returns `fallback` when the file is missing (containers often hide sysfs).
int ReadIntFile(const std::string& path, int fallback) {
  std::ifstream in(path);
  int value = fallback;
  if (in && (in >> value)) {
    return value;
  }
  return fallback;
}

}  // namespace

Topology::Topology(int sockets, int cores_per_socket, int smt_per_core)
    : sockets_(sockets), cores_per_socket_(cores_per_socket), smt_per_core_(smt_per_core) {
  int os_cpu = 0;
  // Synthetic OS ids follow the common Linux enumeration: first hyper-threads
  // of every core of every socket, then the second hyper-threads.
  for (int smt = 0; smt < smt_per_core; ++smt) {
    for (int socket = 0; socket < sockets; ++socket) {
      for (int core = 0; core < cores_per_socket; ++core) {
        cpus_.push_back(CpuInfo{os_cpu++, socket, core, smt});
      }
    }
  }
}

Topology Topology::Detect() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  const int ncpu = n > 0 ? static_cast<int>(n) : 1;

  std::vector<CpuInfo> cpus;
  for (int cpu = 0; cpu < ncpu; ++cpu) {
    std::ostringstream base;
    base << "/sys/devices/system/cpu/cpu" << cpu << "/topology/";
    const int socket = ReadIntFile(base.str() + "physical_package_id", -1);
    const int core = ReadIntFile(base.str() + "core_id", -1);
    if (socket < 0 || core < 0) {
      return Topology(1, ncpu, 1);
    }
    cpus.push_back(CpuInfo{cpu, socket, core, 0});
  }
  return FromCpus(std::move(cpus));
}

Topology Topology::FromCpus(std::vector<CpuInfo> cpus) {
  int max_socket = 0;
  for (const CpuInfo& c : cpus) {
    max_socket = std::max(max_socket, c.socket);
  }
  std::vector<std::map<int, int>> dense_core(static_cast<std::size_t>(max_socket) + 1);
  int cores_per_socket = 1;
  for (CpuInfo& c : cpus) {
    std::map<int, int>& ids = dense_core[static_cast<std::size_t>(c.socket)];
    c.core = ids.emplace(c.core, static_cast<int>(ids.size())).first->second;
    cores_per_socket = std::max(cores_per_socket, static_cast<int>(ids.size()));
  }

  // Assign SMT indices: CPUs sharing (socket, core) are hyper-threads.
  std::sort(cpus.begin(), cpus.end(), [](const CpuInfo& a, const CpuInfo& b) {
    if (a.socket != b.socket) {
      return a.socket < b.socket;
    }
    if (a.core != b.core) {
      return a.core < b.core;
    }
    return a.os_cpu < b.os_cpu;
  });
  int smt_max = 1;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const bool sibling =
        i > 0 && cpus[i - 1].socket == cpus[i].socket && cpus[i - 1].core == cpus[i].core;
    cpus[i].smt_index = sibling ? cpus[i - 1].smt_index + 1 : 0;
    smt_max = std::max(smt_max, cpus[i].smt_index + 1);
  }

  Topology topo(max_socket + 1, cores_per_socket, smt_max);
  topo.cpus_ = std::move(cpus);
  return topo;
}

std::vector<CpuInfo> Topology::PinningOrder() const {
  std::vector<CpuInfo> order = cpus_;
  std::sort(order.begin(), order.end(), [](const CpuInfo& a, const CpuInfo& b) {
    if (a.smt_index != b.smt_index) {
      return a.smt_index < b.smt_index;
    }
    if (a.socket != b.socket) {
      return a.socket < b.socket;
    }
    if (a.core != b.core) {
      return a.core < b.core;
    }
    return a.os_cpu < b.os_cpu;
  });
  return order;
}

std::string Topology::ToString() const {
  std::ostringstream out;
  out << sockets_ << " socket(s) x " << cores_per_socket_ << " core(s) x " << smt_per_core_
      << " thread(s) = " << total_contexts() << " hardware contexts";
  return out.str();
}

bool PinThreadToCpu(int os_cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(os_cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

}  // namespace lockin
