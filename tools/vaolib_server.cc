// Copyright 2026 The vaolib Authors.
// vaolib_server: a long-running standing-query server over TCP.
//
//   vaolib_server [--port P] [--bonds N] [--seed S] [--threads T]
//                 [--tick-budget UNITS] [--shed-after N]
//                 [--max-queries N] [--max-objects N] [--max-total N]
//                 [--reserve TENANT=UNITS]
//                 [--no-health] [--health-windows N] [--ticks-per-epoch N]
//
// The runtime health plane (METRICS / INSPECT verbs, SLO burn-rate
// monitors -- see src/obs/health.h) is ON by default in this binary;
// --no-health turns it off, and library embedders get it off by default
// via DispatcherConfig. --health-windows sets the retained epoch count,
// --ticks-per-epoch how many stream ticks close one epoch.
//
// Serves the bond-portfolio workload: relation `bd` (bond_index, position),
// stream schema (rate), UDF `bond_model`. Clients speak the length-framed
// protocol of src/server/protocol.h, e.g. (frame headers shown as <len>\n):
//
//   5\nHELLO desk1
//   52\nREGISTER q1 SELECT MAX(bond_model(rate, bond_index)) FROM bd
//   9\nTICK 0.045
//
// --port 0 binds an ephemeral port. The server prints exactly one
// "LISTENING <port>" line to stdout once it accepts connections, so
// scripts (scripts/loadgen.py) can wait for readiness and discover the
// port. Single-threaded poll() loop: sessions multiplex onto one
// dispatcher, which is what makes cross-client result sharing (one
// executor group per function+args signature) possible at all.
//
// The process is the unit of deployment the ROADMAP's serving milestone
// asks for; systemd/k8s keep it alive, SIGINT/SIGTERM drain and exit 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "server/server.h"
#include "workload/portfolio_gen.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

struct Flags {
  int port = 7411;
  std::size_t bonds = 64;
  std::uint64_t seed = 55;
  int threads = 1;
  std::uint64_t tick_budget = 0;
  int shed_after = 3;
  std::size_t max_queries = 16;
  std::size_t max_objects = 1u << 20;
  std::size_t max_total = 1024;
  std::map<std::string, std::uint64_t> reserves;
  bool health = true;
  std::size_t health_windows = 64;
  std::size_t ticks_per_epoch = 1;
};

bool ParseTenantValue(const char* arg, std::string* tenant, double* value) {
  const char* eq = std::strchr(arg, '=');
  if (eq == nullptr || eq == arg) return false;
  *tenant = std::string(arg, eq - arg);
  char* end = nullptr;
  *value = std::strtod(eq + 1, &end);
  return end != nullptr && *end == '\0' && end != eq + 1;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (name == "--port" && (value = next())) {
      flags->port = std::atoi(value);
    } else if (name == "--bonds" && (value = next())) {
      flags->bonds = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--seed" && (value = next())) {
      flags->seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (name == "--threads" && (value = next())) {
      flags->threads = std::atoi(value);
    } else if (name == "--tick-budget" && (value = next())) {
      flags->tick_budget = static_cast<std::uint64_t>(std::atoll(value));
    } else if (name == "--shed-after" && (value = next())) {
      flags->shed_after = std::atoi(value);
    } else if (name == "--max-queries" && (value = next())) {
      flags->max_queries = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--max-objects" && (value = next())) {
      flags->max_objects = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--max-total" && (value = next())) {
      flags->max_total = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--no-health") {
      flags->health = false;
    } else if (name == "--health-windows" && (value = next())) {
      flags->health_windows = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--ticks-per-epoch" && (value = next())) {
      flags->ticks_per_epoch = static_cast<std::size_t>(std::atoll(value));
    } else if (name == "--reserve" && (value = next())) {
      std::string tenant;
      double units = 0.0;
      if (!ParseTenantValue(value, &tenant, &units) || units < 0.0) {
        std::fprintf(stderr, "bad --reserve '%s' (want TENANT=UNITS)\n",
                     value);
        return false;
      }
      flags->reserves[tenant] = static_cast<std::uint64_t>(units);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n",
                   name.c_str());
      return false;
    }
  }
  return true;
}

// Writes all of \p bytes, tolerating short writes. False on a dead peer.
bool WriteAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vaolib;

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  std::signal(SIGPIPE, SIG_IGN);

  // --- Workload: the paper's bond-portfolio deployment. ------------------
  workload::PortfolioSpec spec;
  spec.count = flags.bonds;
  const auto bonds = workload::GeneratePortfolio(flags.seed, spec);
  const finance::BondPricingFunction model(bonds,
                                           finance::BondModelConfig{});

  engine::Relation bd(engine::Schema(
      {{"bond_index", engine::ColumnType::kDouble},
       {"position", engine::ColumnType::kDouble}}));
  for (std::size_t i = 0; i < bonds.size(); ++i) {
    if (!bd.Append({static_cast<double>(i), i % 9 == 0 ? 8.0 : 1.0}).ok()) {
      std::fprintf(stderr, "relation setup failed\n");
      return 1;
    }
  }
  const engine::Schema stream_schema(
      {{"rate", engine::ColumnType::kDouble}});
  engine::FunctionRegistry registry;
  if (!registry.Register(&model).ok()) return 1;

  server::ServerConfig config;
  config.dispatcher.tick_budget = flags.tick_budget;
  config.dispatcher.threads = flags.threads;
  config.dispatcher.shed_after_misses = flags.shed_after;
  config.dispatcher.admission.default_quota.max_queries = flags.max_queries;
  config.dispatcher.admission.default_quota.max_objects = flags.max_objects;
  config.dispatcher.admission.max_total_queries = flags.max_total;
  config.dispatcher.health.enabled = flags.health;
  config.dispatcher.health.window_count = flags.health_windows;
  config.dispatcher.health.ticks_per_epoch = flags.ticks_per_epoch;
  server::StandingQueryServer server(&bd, stream_schema, &registry, config);
  for (const auto& [tenant, units] : flags.reserves) {
    server::TenantQuota quota = server.dispatcher().admission().QuotaFor(
        tenant);
    quota.reserve_units = units;
    server.dispatcher().admission().SetQuota(tenant, quota);
  }

  // --- TCP plumbing. ------------------------------------------------------
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int enable = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(flags.port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listener, 64) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::printf("LISTENING %d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  std::map<int, std::uint64_t> session_of;  // fd -> session id
  char buffer[65536];

  while (g_stop == 0) {
    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const auto& [fd, session] : session_of) {
      fds.push_back({fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::perror("poll");
      break;
    }
    if (ready == 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      const int client = ::accept(listener, nullptr, nullptr);
      if (client >= 0) session_of[client] = server.OpenSession();
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      if (fds[i].revents == 0) continue;
      const auto it = session_of.find(fd);
      if (it == session_of.end()) continue;
      const std::uint64_t session = it->second;

      bool drop = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (!drop && (fds[i].revents & POLLIN) != 0) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          drop = n == 0 || errno != EINTR;
        } else {
          server.HandleBytes(session,
                             std::string_view(buffer,
                                              static_cast<std::size_t>(n)));
        }
      }

      // A TICK from one session may have fanned results out to every
      // other session's outbox; flush them all.
      for (auto& [peer_fd, peer_session] : session_of) {
        const std::string out = server.DrainOutput(peer_session);
        if (!out.empty() && !WriteAll(peer_fd, out) && peer_fd == fd) {
          drop = true;
        }
      }
      if (drop || server.ShouldClose(session)) {
        server.CloseSession(session);
        session_of.erase(it);
        ::close(fd);
      }
    }
  }

  for (const auto& [fd, session] : session_of) {
    server.CloseSession(session);
    ::close(fd);
  }
  ::close(listener);
  return 0;
}
