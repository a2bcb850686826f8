// delivery_bench: the delivery service's benchmark.
//
//   delivery_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--git-commit <sha>]
//                  [--source-digest <hex>]
//
// Runs one workload against an in-process DeliveryService on loopback and
// prints, for --trace 0, every end-to-end metric and, for --trace 1, every
// per-layer metric: one "name value unit" line each, a "record" line with
// the run's provenance, and last a JSON object with exactly the keys
// correct, attempted, failed and metrics. Exits 1 when any output was
// wrong, any op failed or the drain check found a leak; 2 on bad usage.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "obs/trace.h"
#include "report.h"
#include "rig.h"
#include "util/json.h"

#ifndef DELIVERY_BENCH_BUILD_TYPE
#define DELIVERY_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DELIVERY_BENCH_COMPILER
#define DELIVERY_BENCH_COMPILER "unknown"
#endif

using namespace delivery_bench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "delivery_bench: %s\n"
               "usage: delivery_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-commit <sha>] [--source-digest <hex>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || a.seconds < 1 || a.seconds > 60) {
        usage("--seconds takes a number from 1 to 60");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--git-commit") {
      a.git_commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0.0 || a.trace < 0) {
    usage("--workload, --seconds and --trace are required");
  }
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == a.workload;
  if (!known) usage(("unknown workload " + a.workload).c_str());
  return a;
}

/// Confines the process, and every thread it starts after this call, to
/// one CPU: the last of those it may run on. Returns that CPU, or -1 when
/// the affinity cannot be set.
///
/// On the shared virtual machine the benchmark was built on, each hand-off
/// between the client, the service's loop and its workers that crossed
/// CPUs had to wake a halted virtual CPU, which waits for the hypervisor
/// whenever other tenants keep the host busy. Unpinned, cosim_eval ran at
/// 6.7k-15k ops/s and 60-110 us of CPU per op depending on the host; on
/// one CPU it ran at 27k-31k ops/s and 39.4 us of CPU per op at a time
/// when unpinned runs got 6.7k-10k. The service still sizes its defaults from the box's hardware
/// thread count (workers = 4, island threads = 4), so its threading is
/// measured as it is, time-shared on the one CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Before any thread exists, so that all of them inherit it.
  const int cpu = pin_to_one_cpu();
  try {
    TraceClock::init();
    // session_churn never repeats a cold constant, so its input pool must
    // outlast the longest phase (three times --seconds) at several times
    // the expected session rate.
    const std::size_t max_ops =
        static_cast<std::size_t>((3 * args.seconds + 10) * 3000);
    const auto workload = make_workload(args.workload, args.seed, max_ops);

    const std::string stem = args.out_dir.empty()
                                 ? std::string()
                                 : args.out_dir + "/" + args.workload +
                                       "-seed" + std::to_string(args.seed) +
                                       "-trace" + std::to_string(args.trace);
    Report rep = args.trace == 0
                     ? run_end_to_end(*workload, args.seconds)
                     : run_traced(*workload, args.seconds,
                                  stem.empty() ? "" : stem + ".trace.json");

    jhdl::Json metrics = jhdl::Json::object();
    for (const Metric& m : rep.metrics) {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      jhdl::Json v = jhdl::Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      metrics.set(m.name, std::move(v));
    }

    jhdl::Json record = jhdl::Json::object();
    record.set("workload", args.workload);
    record.set("seed", static_cast<double>(args.seed));
    record.set("trace", args.trace == 1);
    record.set("seconds", args.seconds);
    record.set("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
    record.set("pinned_cpu", static_cast<double>(cpu));
    record.set("build_type", DELIVERY_BENCH_BUILD_TYPE);
    record.set("compiler", DELIVERY_BENCH_COMPILER);
    record.set("git_commit", args.git_commit);
    record.set("source_digest", args.source_digest);
    record.set("protocol_version", static_cast<double>(jhdl::net::kProtocolVersion));
    record.set("connections", static_cast<double>(kConnections));
    record.set("attempted", static_cast<double>(rep.attempted));
    record.set("failed", static_cast<double>(rep.failed));
    record.set("metrics", metrics);
    record.set("detail", rep.detail);
    std::printf("record %s\n", record.dump().c_str());
    if (!stem.empty()) {
      std::ofstream out(stem + ".json");
      out << record.dump(2) << "\n";
      if (!out) throw std::runtime_error("cannot write " + stem + ".json");
    }

    jhdl::Json result = jhdl::Json::object();
    result.set("correct", rep.failed == 0);
    result.set("attempted", static_cast<double>(rep.attempted));
    result.set("failed", static_cast<double>(rep.failed));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delivery_bench: %s\n", e.what());
    return 1;
  }
}
