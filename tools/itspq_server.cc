// itspq_server — the network edge as a process.
//
// Boots a deterministic venue fleet (same generator and seed semantics
// as the benches: identical --venues/--seed/--max-floors on a different
// process rebuilds the identical catalog — how itspq_loadgen knows what
// workload to aim at it), fronts it with a QueryService + NetServer on
// loopback TCP, and serves until a client sends the kShutdown frame.
//
//   itspq_server --venues=2 --seed=7 [--max-floors=2] [--port=0]
//                [--port-file=PATH] [--workers=2] [--queue=64]
//                [--target-delay-micros=0]
//
// --port=0 (default) takes a kernel-assigned ephemeral port;
// --port-file writes the bound port as a decimal line once listening,
// which is how the CI smoke scripts coordinate without racing on a
// fixed port. On shutdown the tool prints the final service ledger and
// exits non-zero if the quiesced accounting invariant
// (submitted == served + shed + rejected + timed_out) does not hold —
// the server process is itself the accounting check.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "gen/workload_gen.h"
#include "net/server.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "itspq_server: %s\n", message.c_str());
  std::exit(1);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

long ParseLong(const std::string& value, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    Die(std::string("bad value for ") + flag + ": " + value);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  int venues = 2;
  int max_floors = 2;
  uint64_t seed = 7;
  long port = 0;
  std::string port_file;
  itspq::ServiceOptions service_opts;
  service_opts.num_workers = 2;
  service_opts.queue_capacity = 64;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--venues", &value)) {
      venues = static_cast<int>(ParseLong(value, "--venues"));
    } else if (ParseFlag(argv[i], "--max-floors", &value)) {
      max_floors = static_cast<int>(ParseLong(value, "--max-floors"));
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      seed = static_cast<uint64_t>(ParseLong(value, "--seed"));
    } else if (ParseFlag(argv[i], "--port", &value)) {
      port = ParseLong(value, "--port");
    } else if (ParseFlag(argv[i], "--port-file", &value)) {
      port_file = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      service_opts.num_workers = static_cast<int>(ParseLong(value, "--workers"));
    } else if (ParseFlag(argv[i], "--queue", &value)) {
      service_opts.queue_capacity =
          static_cast<size_t>(ParseLong(value, "--queue"));
    } else if (ParseFlag(argv[i], "--target-delay-micros", &value)) {
      service_opts.target_queue_delay_micros =
          static_cast<double>(ParseLong(value, "--target-delay-micros"));
    } else {
      Die(std::string("unknown flag: ") + argv[i]);
    }
  }
  if (port < 0 || port > 65535) Die("--port must be in [0, 65535]");

  itspq::FleetConfig fleet_config;
  fleet_config.num_venues = venues;
  fleet_config.seed = seed;
  fleet_config.min_floors = 1;
  fleet_config.max_floors = max_floors;
  auto fleet = itspq::GenerateVenueFleet(fleet_config);
  if (!fleet.ok()) Die("fleet generation failed: " + fleet.status().ToString());

  itspq::VenueCatalog catalog;
  for (itspq::Venue& venue : *fleet) {
    auto id = catalog.AddVenue(std::move(venue), "itg-a+");
    if (!id.ok()) Die("AddVenue failed: " + id.status().ToString());
  }

  auto service = itspq::MakeQueryService(std::move(catalog), service_opts);
  if (!service.ok()) {
    Die("MakeQueryService failed: " + service.status().ToString());
  }

  itspq::net::NetServerOptions net_opts;
  net_opts.port = static_cast<uint16_t>(port);
  auto server = itspq::net::MakeNetServer(std::move(*service), net_opts);
  if (!server.ok()) Die("MakeNetServer failed: " + server.status().ToString());

  std::printf("itspq_server: %d venues (seed %llu), %d workers, listening on "
              "127.0.0.1:%u\n",
              venues, static_cast<unsigned long long>(seed),
              service_opts.num_workers, (*server)->port());
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Written only once the listener is live, so a reader never races a
    // half-started server; the temp+rename dance is unnecessary for a
    // single decimal line consumed by a polling shell loop.
    std::ofstream out(port_file);
    if (!out) Die("cannot write --port-file " + port_file);
    out << (*server)->port() << "\n";
  }

  (*server)->WaitForShutdownRequest();
  (*server)->Stop();

  const itspq::net::NetServerStats net = (*server)->Stats();
  const itspq::ServiceStats s = (*server)->service().Stats();
  const size_t shed = s.shed_displaced + s.shed_infeasible;
  const size_t rejected = s.rejected_queue_full + s.rejected_expired +
                          s.rejected_invalid + s.rejected_shutdown;
  const size_t timed_out = s.timed_out_in_queue + s.timed_out_in_flight;
  std::printf("itspq_server: %zu conns (%zu dropped), %zu frames in / %zu "
              "out, %zu decode errors\n",
              net.connections_accepted, net.connections_dropped,
              net.frames_received, net.frames_sent, net.decode_errors);
  std::printf("itspq_server: submitted %zu = served %zu + shed %zu + "
              "rejected %zu + timed-out %zu\n",
              s.submitted, s.served, shed, rejected, timed_out);
  if (s.served + shed + rejected + timed_out != s.submitted) {
    std::fprintf(stderr, "itspq_server: ACCOUNTING VIOLATION\n");
    return 1;
  }
  return 0;
}
