// rascad_serve — the long-running solve daemon.
//
//   rascad_serve <socket> [options]
//
//   --queue N           admission queue capacity (default 64)
//   --retry-after MS    backoff hint in kRetryAfter frames (default 25)
//   --deadline MS       default per-request deadline when the client sends
//                       none (default: no deadline)
//   --cache N           SolveCache capacity for blocks and curves
//   --obs-append PATH   drain + append the obs trace to PATH after every
//                       request (needs RASCAD_OBS=1)
//   --run-for MS        exit after MS even without a shutdown request
//                       (harness aid; default: run until kShutdown/SIGINT)
//
// The daemon runs until a client sends kShutdown or SIGINT/SIGTERM
// arrives, then drains in-flight requests and exits 0.
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/jsonl.hpp"
#include "serve/service.hpp"

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

int usage() {
  std::cerr << "usage: rascad_serve <socket> [--queue N] [--retry-after MS]\n"
               "                    [--deadline MS] [--cache N]\n"
               "                    [--obs-append PATH] [--run-for MS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  rascad::serve::ServiceConfig cfg;
  cfg.socket_path = argv[1];
  double run_for_ms = 0.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "rascad_serve: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--queue") {
      cfg.queue_capacity = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--retry-after") {
      cfg.retry_after_ms = std::atof(value());
    } else if (arg == "--deadline") {
      cfg.default_deadline_ms = std::atof(value());
    } else if (arg == "--cache") {
      cfg.cache_capacity = static_cast<std::size_t>(std::atoll(value()));
    } else if (arg == "--obs-append") {
      cfg.obs_append_path = value();
    } else if (arg == "--run-for") {
      run_for_ms = std::atof(value());
    } else {
      return usage();
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  rascad::serve::Service service(cfg);
  try {
    service.start();
  } catch (const std::exception& e) {
    std::cerr << "rascad_serve: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "rascad_serve: listening on " << cfg.socket_path << '\n';

  // Wait for a shutdown request in short slices so signals are noticed
  // promptly; --run-for bounds the whole wait for test harnesses.
  double waited_ms = 0.0;
  while (!service.shutdown_requested() && !g_interrupted.load()) {
    service.wait_shutdown_requested(50.0);
    waited_ms += 50.0;
    if (run_for_ms > 0.0 && waited_ms >= run_for_ms) break;
  }

  service.stop();
  const auto stats = service.stats();
  std::cerr << "rascad_serve: done (accepted=" << stats.accepted
            << " rejected=" << stats.rejected
            << " completed=" << stats.completed << " failed=" << stats.failed
            << " cache hits=" << stats.cache_blocks.hits << ")\n";
  rascad::obs::dump_if_enabled();
  return 0;
}
