// parsim command-line tool: generate workloads, build/persist indexes,
// and run declustering experiments without writing C++.
//
//   parsim_cli generate --workload=fourier --mb=8 --dim=15 --seed=7
//              --out=/tmp/parts.bin
//   parsim_cli experiment --data=/tmp/parts.bin --declusterer=new
//              --disks=16 --k=10 --queries=20
//   parsim_cli compare --data=/tmp/parts.bin --disks=16 --k=10
//   parsim_cli info --data=/tmp/parts.bin

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "src/parsim/parsim.h"

namespace parsim {
namespace cli {
namespace {

/// Minimal --key=value parser; positional arguments are rejected.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        continue;
      }
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: parsim_cli <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  generate    synthesize a workload and save it\n"
      "              --workload=uniform|fourier|text|clustered\n"
      "              --mb=8 | --n=100000   --dim=15   --seed=1\n"
      "              --out=points.bin\n"
      "  info        describe a saved point set: --data=points.bin\n"
      "  experiment  run k-NN queries over one declusterer\n"
      "              --data=... [--declusterer=new|HIL|RR|DM|FX]\n"
      "              [--disks=16] [--k=10] [--queries=20]\n"
      "              [--arch=shared|federated|scan] [--quantile]\n"
      "              [--recursive] [--buffer=pages]\n"
      "  compare     run all declusterers side by side (same flags)\n");
  return 2;
}

PointSet GenerateWorkload(const std::string& kind, std::size_t n,
                          std::size_t dim, std::uint64_t seed) {
  if (kind == "fourier") {
    FourierOptions options;
    options.base_shapes = 16;
    options.variation = 0.15;
    return GenerateFourierPoints(n, dim, seed, options);
  }
  if (kind == "text") return GenerateTextDescriptors(n, dim, seed);
  if (kind == "clustered") {
    return GenerateClusteredGaussian(n, dim, 8, 0.03, seed);
  }
  return GenerateUniform(n, dim, seed);
}

int RunGenerate(const Flags& flags) {
  const std::string kind = flags.GetString("workload", "uniform");
  const auto dim = static_cast<std::size_t>(flags.GetInt("dim", 15));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 0));
  if (n == 0) {
    n = NumPointsForMegabytes(flags.GetDouble("mb", 8.0), dim);
  }
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const PointSet points = GenerateWorkload(kind, n, dim, seed);
  const Status s = SavePointSet(points, out);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu %s points (d=%zu, %.1f MB of records) to %s\n",
              points.size(), kind.c_str(), dim,
              MegabytesForPoints(points.size(), dim), out.c_str());
  return 0;
}

int RunInfo(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  const Result<PointSet> loaded = LoadPointSet(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const PointSet& points = loaded.value();
  std::printf("points: %zu\ndim: %zu\nMB: %.2f\n", points.size(),
              points.dim(), MegabytesForPoints(points.size(), points.dim()));
  if (!points.empty()) {
    const auto splits = EstimateQuantileSplits(points);
    std::printf("per-dimension medians:");
    for (Scalar s : splits) std::printf(" %.3f", static_cast<double>(s));
    std::printf("\n");
    const NearOptimalDeclusterer dec(points.dim(),
                                     NumColors(points.dim()));
    std::printf("quadrant-load imbalance (midpoint buckets, %u disks): %.2f\n",
                dec.num_disks(), LoadImbalance(DiskLoads(dec, points)));
  }
  return 0;
}

Architecture ParseArchitecture(const std::string& name) {
  if (name == "federated") return Architecture::kFederatedTrees;
  if (name == "scan") return Architecture::kFederatedScan;
  return Architecture::kSharedTree;
}

std::unique_ptr<Declusterer> MakeCliDeclusterer(const Flags& flags,
                                                const PointSet& data,
                                                const std::string& name,
                                                std::uint32_t disks) {
  const std::size_t dim = data.dim();
  if (name == "new") {
    Bucketizer buckets =
        flags.GetString("quantile", "false") != "false"
            ? Bucketizer(EstimateQuantileSplits(data))
            : Bucketizer(dim);
    if (flags.GetString("recursive", "false") != "false") {
      RecursiveOptions options;
      options.overload_threshold = 1.2;
      auto dec = std::make_unique<RecursiveDeclusterer>(std::move(buckets),
                                                        disks, options);
      dec->Fit(data);
      return dec;
    }
    return std::make_unique<NearOptimalDeclusterer>(std::move(buckets), disks);
  }
  if (name == "HIL") return std::make_unique<HilbertDeclusterer>(dim, disks, 1);
  if (name == "RR") return std::make_unique<RoundRobinDeclusterer>(disks);
  if (name == "DM") return std::make_unique<DiskModuloDeclusterer>(dim, disks);
  if (name == "FX") return std::make_unique<FxDeclusterer>(dim, disks);
  return nullptr;
}

struct ExperimentRow {
  std::string name;
  WorkloadResult result;
};

int RunExperimentRows(const Flags& flags,
                      const std::vector<std::string>& declusterers) {
  const std::string path = flags.GetString("data", "");
  const Result<PointSet> loaded = LoadPointSet(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const PointSet& data = loaded.value();
  const auto disks = static_cast<std::uint32_t>(flags.GetInt("disks", 16));
  const auto k = static_cast<std::size_t>(flags.GetInt("k", 10));
  const auto num_queries =
      static_cast<std::size_t>(flags.GetInt("queries", 20));
  const PointSet queries =
      SampleQueriesFromData(data, num_queries, 0.02,
                            static_cast<std::uint64_t>(flags.GetInt("seed", 2)));

  EngineOptions options;
  options.architecture =
      ParseArchitecture(flags.GetString("arch", "federated"));
  options.bulk_load = true;
  options.buffer_pages_per_disk =
      static_cast<std::uint64_t>(flags.GetInt("buffer", 0));

  Table table({"declusterer", "avg ms (max rule)", "max pages", "balance"});
  for (const std::string& name : declusterers) {
    auto dec = MakeCliDeclusterer(flags, data, name, disks);
    if (dec == nullptr) {
      std::fprintf(stderr, "unknown declusterer: %s\n", name.c_str());
      return 2;
    }
    ParallelSearchEngine engine(data.dim(), std::move(dec), options);
    const Status s = engine.Build(data);
    if (!s.ok()) {
      std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const WorkloadResult r = RunKnnWorkload(engine, queries, k);
    table.AddRow({name, Table::Num(r.avg_parallel_ms, 1),
                  Table::Num(r.avg_max_pages, 1),
                  Table::Num(r.avg_balance, 2)});
  }
  std::printf("%zu points d=%zu, %u disks, %zu-NN, %zu queries\n",
              data.size(), data.dim(), disks, k, queries.size());
  table.Print(stdout);
  return 0;
}

int RunExperiment(const Flags& flags) {
  return RunExperimentRows(flags,
                           {flags.GetString("declusterer", "new")});
}

int RunCompare(const Flags& flags) {
  return RunExperimentRows(flags, {"new", "HIL", "RR", "DM", "FX"});
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (!flags.ok()) return Usage();
  if (command == "generate") return RunGenerate(flags);
  if (command == "info") return RunInfo(flags);
  if (command == "experiment") return RunExperiment(flags);
  if (command == "compare") return RunCompare(flags);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace parsim

int main(int argc, char** argv) { return parsim::cli::Main(argc, argv); }
