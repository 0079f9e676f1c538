// ftlcoordd_loadgen entry point: drive a running daemon with batched
// decide frames from several worker threads and report throughput and
// latency percentiles.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "ftlcoordd/loadgen.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

namespace {

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --port N [flags]\n"
               "  --host H          daemon host (default 127.0.0.1)\n"
               "  --port N          daemon decide port (required)\n"
               "  --threads N       worker threads / connections (default 2)\n"
               "  --sources N       daemon source count; worker i drives source i%%N (default 1)\n"
               "  --batch N         decisions per frame (default 512)\n"
               "  --decisions N     total decisions across workers (default 1000000)\n"
               "  --rate HZ         offered decisions/s; 0 = saturation (default 0)\n"
               "  --pipeline N      frames in flight per connection (default 4)\n"
               "  --seed N          trace-id derivation seed (default 42)\n"
               "  --deadline-us US  per-request deadline budget; 0 = none (default 0)\n"
               "  --trace-sample-n N trace 1 of every N batches per worker; 0 = off (default 0)\n"
               "  --trace-out PATH  write a Chrome/Perfetto trace JSON on exit\n",
               prog);
}

}  // namespace

int main(int argc, char** argv) {
  const ftl::util::Args args(argc, argv);
  if (args.has("help") || !args.has("port")) {
    print_usage(args.program().c_str());
    return args.has("help") ? 0 : 1;
  }

  ftl::coordd::LoadgenConfig cfg;
  cfg.host = args.get("host", std::string("127.0.0.1"));
  cfg.port = static_cast<std::uint16_t>(args.get("port", 0LL));
  cfg.threads = args.get("threads", std::size_t{2});
  cfg.sources = args.get("sources", std::size_t{1});
  cfg.batch = args.get("batch", std::size_t{512});
  cfg.decisions = static_cast<std::uint64_t>(args.get("decisions", 1000000LL));
  cfg.rate_hz = args.get("rate", 0.0);
  cfg.pipeline = args.get("pipeline", std::size_t{4});
  cfg.seed = static_cast<std::uint64_t>(args.get("seed", 42LL));
  cfg.deadline_us =
      static_cast<std::uint32_t>(args.get("deadline-us", 0LL));
  cfg.trace_sample_n =
      static_cast<std::uint64_t>(args.get("trace-sample-n", 0LL));
  const std::string trace_out = args.get("trace-out", std::string());

  if (!trace_out.empty()) {
    if (cfg.trace_sample_n == 0) cfg.trace_sample_n = 1;
    ftl::obs::tracer().start();
  }

  const auto result = ftl::coordd::run_loadgen(cfg, std::cerr);

  if (!trace_out.empty()) {
    ftl::obs::tracer().stop();
    if (!ftl::obs::tracer().write(trace_out)) {
      std::cerr << "loadgen: FAILED to write trace to " << trace_out << "\n";
      return 1;
    }
    std::cerr << "loadgen: wrote " << ftl::obs::tracer().size()
              << " trace events to " << trace_out << "\n";
  }

  if (!result.ok) {
    std::cerr << "loadgen: FAILED: " << result.error << "\n";
    return 1;
  }
  return 0;
}
