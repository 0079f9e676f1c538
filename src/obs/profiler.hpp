// In-process sampling CPU profiler — the "where does the CPU go" layer of
// the observability subsystem.
//
// Four pieces:
//  * real::Profiler arms a POSIX CPU-time timer (timer_create on the
//    process CPU clock, setitimer(ITIMER_PROF) fallback) that delivers
//    SIGPROF at a configurable Hz. The async-signal-safe handler captures
//    the interrupted thread's stack into a preallocated lock-free sample
//    arena: threads claim fixed-size chunks with one fetch_add and publish
//    each sample with a release store, so the hot path takes no locks and
//    allocates nothing. Because the timer runs on the *CPU* clock, idle
//    (blocked) threads are never sampled and sampling pressure follows
//    actual compute.
//  * Samples are tagged with the current profile stage — a thread-local
//    `const char*` set by set_profile_stage()/ProfileStage (string
//    literals only, like tracer span names). ftlcoordd sets it at the same
//    five boundaries that feed the `coordd.stage_us` histograms, so
//    profile weight joins against the per-stage latency attribution.
//  * Symbolization is lazy (export time, never in the handler): the main
//    binary's own ELF .symtab/.dynsym is parsed from /proc/self/exe so
//    static functions and lambdas resolve without -rdynamic, with dladdr
//    covering shared-library frames and a hex fallback for the rest.
//  * One deterministic exporter: FlameGraph folded stacks
//    (`frame;frame;leaf count` lines, lexicographically sorted so golden
//    tests work), which flamegraph.pl and https://www.speedscope.app both
//    open directly. It is a pure function over a sample vector and an
//    injectable symbolizer, so it unit-tests without signals.
//
// House rules: real/noop twins behind FTL_OBS_ENABLED (the noop Profiler
// is an empty type asserted by obs_noop_test; set_profile_stage compiles
// to nothing), and zero overhead when disarmed — the handler is only
// installed while a session is armed, and the stage tag is one
// thread-local pointer store.
//
// One session at a time: start() fails (returns false) while another
// profile session is armed, which is what lets ftlcoordd's
// `GET /profile?seconds=N&hz=H` endpoint and a bench's `--profile-out`
// share one process-wide sampler safely.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // FTL_OBS_ENABLED default + obs::kEnabled

namespace ftl::obs {

/// Hard cap on captured frames per sample (the arena slot size).
inline constexpr std::size_t kProfilerMaxDepth = 64;

struct ProfilerOptions {
  /// Samples per second of *process CPU time* (clamped to [1, 10000]).
  /// 99 Hz is the conventional default: fine enough for hotspots, cheap
  /// enough to leave on, and coprime with common 10/100 Hz periodic work.
  int hz = 99;
  /// Frames kept per sample (clamped to [4, kProfilerMaxDepth]).
  std::size_t max_depth = 32;
  /// Total sample slots in the arena, shared by all threads. At 99 Hz the
  /// default holds ~11 CPU-minutes of samples; overflow increments
  /// dropped() rather than reallocating.
  std::size_t capacity = 1u << 16;
};

/// One captured stack: return addresses leaf-first, plus the profile-stage
/// tag (string literal or nullptr) the thread carried when sampled.
struct ProfileSample {
  const char* stage = nullptr;
  std::vector<std::uintptr_t> pcs;
};

/// Maps a pc to a human-readable frame name. Injectable so the exporters
/// are deterministic under test.
using SymbolizeFn = std::function<std::string(std::uintptr_t)>;

/// Best-effort symbolization of one pc: own-ELF .symtab/.dynsym lookup
/// (demangled) for main-binary frames, dladdr for shared libraries,
/// "[module]" when only the file is known, "0x<hex>" otherwise.
[[nodiscard]] std::string symbolize_pc(std::uintptr_t pc);

/// FlameGraph-compatible folded stacks: one `frame;frame;leaf count` line
/// per distinct stack, root-first, lexicographically sorted (deterministic
/// for golden tests; flamegraph.pl and speedscope both ingest this
/// directly). A tagged sample gains a `stage:<name>` root frame so stage
/// weight is visible at the flame base. Non-leaf return addresses are
/// symbolized at pc-1 (the call site, not the return target).
[[nodiscard]] std::string fold_profile(const std::vector<ProfileSample>& samples,
                                       const SymbolizeFn& symbolize);

namespace real {

/// The process-wide sampling profiler. All state lives behind a single
/// armed session (SIGPROF is process-global), so this class is a handle:
/// construct anywhere, but only one start() succeeds at a time. Use the
/// profiler() singleton unless a test needs an independent handle.
class Profiler {
 public:
  /// Arms the sampler. False when another session is already armed or the
  /// timer/handler could not be installed. Clamps the options into their
  /// documented ranges (query the result via options()).
  bool start(const ProfilerOptions& opts = {});

  /// Disarms the timer and waits for in-flight handlers to drain. The
  /// captured samples stay readable until the next start(). Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// Samples published so far (readable while armed).
  [[nodiscard]] std::uint64_t sample_count() const noexcept;
  /// Samples lost to arena overflow.
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// The clamped options of the current (or last) session.
  [[nodiscard]] ProfilerOptions options() const noexcept { return opts_; }

  /// Snapshot of every published sample.
  [[nodiscard]] std::vector<ProfileSample> samples() const;
  /// fold_profile(samples(), symbolize_pc).
  [[nodiscard]] std::string folded() const;

 private:
  ProfilerOptions opts_{};
};

/// Process-wide profiler handle (what ObsSession and ftlcoordd use).
Profiler& profiler();

/// Sets the calling thread's profile-stage tag; returns the previous tag.
/// `stage` must be a string literal or otherwise outlive the session (the
/// pointer is stored, never copied — same contract as tracer span names).
const char* set_profile_stage(const char* stage) noexcept;

/// The calling thread's current tag (nullptr = untagged).
[[nodiscard]] const char* profile_stage() noexcept;

/// RAII stage tag for scoped hot sections.
class ProfileStage {
 public:
  explicit ProfileStage(const char* stage) noexcept
      : prev_(set_profile_stage(stage)) {}
  ~ProfileStage() { set_profile_stage(prev_); }
  ProfileStage(const ProfileStage&) = delete;
  ProfileStage& operator=(const ProfileStage&) = delete;

 private:
  const char* prev_;
};

}  // namespace real

namespace noop {

struct Profiler {
  bool start(const ProfilerOptions& = {}) const noexcept { return false; }
  void stop() const noexcept {}
  [[nodiscard]] bool running() const noexcept { return false; }
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  [[nodiscard]] ProfilerOptions options() const noexcept { return {}; }
  [[nodiscard]] std::vector<ProfileSample> samples() const { return {}; }
  [[nodiscard]] std::string folded() const { return {}; }
};

inline Profiler& profiler() noexcept {
  static Profiler p;
  return p;
}

inline const char* set_profile_stage(const char*) noexcept { return nullptr; }
[[nodiscard]] inline const char* profile_stage() noexcept { return nullptr; }

struct ProfileStage {
  explicit ProfileStage(const char*) noexcept {}
  ProfileStage(const ProfileStage&) = delete;
  ProfileStage& operator=(const ProfileStage&) = delete;
};

}  // namespace noop

#if FTL_OBS_ENABLED
using Profiler = real::Profiler;
using ProfileStage = real::ProfileStage;
inline Profiler& profiler() { return real::profiler(); }
inline const char* set_profile_stage(const char* stage) noexcept {
  return real::set_profile_stage(stage);
}
[[nodiscard]] inline const char* profile_stage() noexcept {
  return real::profile_stage();
}
#else
using Profiler = noop::Profiler;
using ProfileStage = noop::ProfileStage;
inline Profiler& profiler() noexcept { return noop::profiler(); }
inline const char* set_profile_stage(const char* stage) noexcept {
  return noop::set_profile_stage(stage);
}
[[nodiscard]] inline const char* profile_stage() noexcept {
  return noop::profile_stage();
}
#endif

}  // namespace ftl::obs
