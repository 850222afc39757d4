// vist_perfbench: runs one workload of the repository benchmark and prints
// its result as one JSON object on stdout. run.py builds this binary, runs
// it, and turns the object into the benchmark's result line.
//
//   vist_perfbench --workload <struct_query|ingest_durable>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--trace-out <file>]

#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"

namespace vist {
namespace perfbench {
namespace {

int Usage() {
  fprintf(stderr,
          "usage: vist_perfbench --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> --workdir <dir> [--trace-out <file>]\n");
  return 2;
}

/// The file system the index files (and their fsyncs) live on.
std::string FileSystemName(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx",
               static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = atof(value);
    } else if (flag == "--trace") {
      args.trace = strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (args.workdir.empty() || args.seconds <= 0) return Usage();
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "struct_query") run = RunStructQuery;
  if (args.workload == "ingest_durable") run = RunIngestDurable;
  if (run == nullptr) return Usage();

  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  Report report;
  report.Info("workload", JsonString(args.workload));
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? "true" : "false");
  report.Info("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("filesystem", JsonString(FileSystemName(args.workdir)));
  run(args, &report);
  if (args.trace && !args.trace_out.empty()) WriteSpans(args.trace_out);
  std::filesystem::remove_all(args.workdir);
  printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace vist

int main(int argc, char** argv) { return vist::perfbench::Main(argc, argv); }
