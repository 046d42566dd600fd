// CLI: open-loop load generator against running Serenade servers.
//
//   serenade_loadtest --ports 8080,8081 [--rps 500] [--ramp-to 0]
//       [--duration 30] [--connections 8] [--synthetic-sessions 20000]
//
// Synthesises a clickstream workload (or replays --clicks CSV sessions),
// routes requests across the given ports with sticky-session hashing and
// prints the per-bucket rate / latency table of Figure 3(b).
#include <cstdio>
#include <sstream>

#include "benchutil/load_generator.h"
#include "benchutil/workload.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "flags.h"

using namespace serenade;

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);

  std::vector<uint16_t> ports;
  std::stringstream port_list(flags.GetString("ports", "8080"));
  const std::string clicks_path = flags.GetString("clicks");
  SyntheticConfig synthetic;
  if (clicks_path.empty()) {
    synthetic.seed = flags.GetInt("seed", 42);
    synthetic.num_sessions = flags.GetInt("synthetic-sessions", 20000);
    synthetic.num_items = flags.GetInt("synthetic-items", 5000);
  }
  const double rps = flags.GetDouble("rps", 500);
  const double ramp_to = flags.GetDouble("ramp-to", 0);
  WorkloadOptions workload_options;
  workload_options.duration_seconds = flags.GetDouble("duration", 30);
  workload_options.seed = flags.GetInt("seed", 42);
  LoadGeneratorOptions load_options;
  load_options.connections_per_server = flags.GetInt("connections", 8);
  load_options.bucket_seconds = flags.GetDouble("bucket", 2.0);
  flags.RejectUnread();

  std::string token;
  while (std::getline(port_list, token, ',')) {
    ports.push_back(static_cast<uint16_t>(std::atoi(token.c_str())));
  }
  if (ports.empty()) {
    std::fprintf(stderr, "--ports required (comma separated)\n");
    return 2;
  }

  Dataset sessions;
  if (!clicks_path.empty()) {
    auto clicks = ReadClicksCsv(clicks_path);
    if (!clicks.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", clicks_path.c_str(),
                   clicks.status().ToString().c_str());
      return 1;
    }
    sessions = Dataset::FromClicks(std::move(clicks).value());
  } else {
    sessions = GenerateDataset(synthetic);
  }

  const RateProfile profile = ramp_to > 0 ? RateProfile::Ramp(rps, ramp_to)
                                          : RateProfile::Constant(rps);
  const auto events = BuildWorkload(sessions, profile, workload_options);
  std::printf("workload: %zu requests over %.0fs against %zu server(s)\n",
              events.size(), workload_options.duration_seconds,
              ports.size());

  const LoadResult result = RunLoad(events, ports, load_options);
  std::printf("%s", result.FormatTable().c_str());
  return result.total_errors == 0 ? 0 : 1;
}
