// CPU topology discovery and the paper's thread-placement policy.
//
// Methodology from section 2: "When we vary the number of threads, we first
// use the cores within a socket, then the cores of the second socket, and
// finally, the hyper-threads." PinningOrder() materialises exactly that
// order so benchmarks place thread i on PinningOrder()[i].
#ifndef SRC_PLATFORM_TOPOLOGY_HPP_
#define SRC_PLATFORM_TOPOLOGY_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace lockin {

// A logical CPU (what Linux calls a "processor"): one hardware context.
struct CpuInfo {
  int os_cpu = 0;   // Linux CPU id
  int socket = 0;   // physical package id
  int core = 0;     // core id within the socket
  int smt_index = 0;  // 0 for the first hyper-thread of a core, 1 for second
};

// Machine topology: sockets x cores x SMT threads.
class Topology {
 public:
  // Builds a synthetic topology (used by the simulator and by tests).
  Topology(int sockets, int cores_per_socket, int smt_per_core);

  // Discovers the host topology from /sys/devices/system/cpu. Falls back to
  // a flat single-socket topology when sysfs is unavailable.
  static Topology Detect();

  // Assembles a topology from CPUs in sysfs order, each carrying its
  // os_cpu, socket and sysfs core_id. Core ids are renumbered densely
  // within each socket, in the order they first appear, so cores numbered
  // 0-4 and 8-12 become 0-9: the power model and the simulator key cores
  // as socket * cores_per_socket + core. cores_per_socket is the largest
  // socket's count; smt_index is assigned here.
  static Topology FromCpus(std::vector<CpuInfo> cpus);

  // The paper's Xeon testbed: 2 sockets x 10 cores x 2 hyper-threads.
  static Topology PaperXeon() { return Topology(2, 10, 2); }

  int sockets() const { return sockets_; }
  int cores_per_socket() const { return cores_per_socket_; }
  int smt_per_core() const { return smt_per_core_; }
  int total_cores() const { return sockets_ * cores_per_socket_; }
  int total_contexts() const { return total_cores() * smt_per_core_; }

  const std::vector<CpuInfo>& cpus() const { return cpus_; }

  // Hardware contexts in the paper's placement order: all first hyper-threads
  // of socket 0, then of socket 1, ..., then the second hyper-threads.
  std::vector<CpuInfo> PinningOrder() const;

  std::string ToString() const;

 private:
  int sockets_;
  int cores_per_socket_;
  int smt_per_core_;
  std::vector<CpuInfo> cpus_;
};

// Pins the calling thread to the given OS CPU. Returns false if the kernel
// rejected the affinity mask (e.g. CPU offline); callers treat this as
// best-effort.
bool PinThreadToCpu(int os_cpu);

}  // namespace lockin

#endif  // SRC_PLATFORM_TOPOLOGY_HPP_
