#include "obs/profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

namespace ftl::obs {

// ---------------------------------------------------------------------------
// Sample arena + SIGPROF handler.
//
// Memory layout: one arena of `capacity` fixed-stride slots. A slot is a
// SlotHeader (ready flag, depth, stage tag) followed by `max_depth` pcs.
// Threads claim kChunkSamples-slot chunks from a global cursor with one
// fetch_add and then fill their chunk privately, so concurrent handlers
// never contend on anything but that occasional fetch_add. A sample
// becomes visible to readers only after its release-store of `ready`; the
// reader side (samples()) acquires it, so partially written slots are
// never observed. The arena is never freed while a handler could still be
// in flight: start() spins on the in-flight counter before reallocating,
// and the session epoch invalidates every thread's cached chunk.
// ---------------------------------------------------------------------------

namespace real {

namespace {

constexpr std::size_t kChunkSamples = 256;
/// backtrace() frames belonging to the profiler itself: the handler and
/// the kernel signal trampoline. The unwinder crosses the signal frame, so
/// after the skip the first frame is the interrupted pc.
constexpr int kSkipFrames = 2;

struct SlotHeader {
  std::atomic<std::uint32_t> ready;
  std::uint32_t depth;
  const char* stage;
};

std::byte* g_arena = nullptr;  // lifecycle under g_lifecycle_mu
std::size_t g_capacity = 0;
std::size_t g_stride = 0;
std::size_t g_depth_cap = 0;

std::atomic<std::size_t> g_cursor{0};   // next unclaimed slot
std::atomic<std::uint64_t> g_epoch{0};  // bumped per start(); invalidates chunks
std::atomic<std::uint64_t> g_published{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_armed{false};
std::atomic<int> g_inflight{0};

timer_t g_timer;
bool g_timer_valid = false;
bool g_itimer_valid = false;
bool g_handler_installed = false;

std::mutex g_lifecycle_mu;  // start/stop/samples (never the handler)

struct ThreadChunk {
  std::uint64_t epoch = 0;
  std::size_t next = 0;
  std::size_t end = 0;
};
thread_local ThreadChunk t_chunk;
thread_local const char* t_stage = nullptr;

SlotHeader* slot_at(std::size_t i) noexcept {
  return reinterpret_cast<SlotHeader*>(g_arena + i * g_stride);
}

std::uintptr_t* slot_pcs(SlotHeader* s) noexcept {
  return reinterpret_cast<std::uintptr_t*>(reinterpret_cast<std::byte*>(s) +
                                           sizeof(SlotHeader));
}

/// Async-signal-safe: atomics, thread-local POD, and backtrace() (warmed
/// up in start() so its one-time libgcc load never happens here). No
/// malloc, no locks, errno preserved.
void sigprof_handler(int, siginfo_t*, void*) {
  if (!g_armed.load(std::memory_order_acquire)) return;
  g_inflight.fetch_add(1, std::memory_order_acq_rel);
  // Re-check under the in-flight guard: stop()/start() wait for the
  // counter to drain before touching the arena, so from here on the
  // arena pointers are stable even if the session is being torn down.
  if (!g_armed.load(std::memory_order_acquire)) {
    g_inflight.fetch_sub(1, std::memory_order_release);
    return;
  }
  const int saved_errno = errno;

  ThreadChunk& tc = t_chunk;
  const std::uint64_t ep = g_epoch.load(std::memory_order_relaxed);
  if (tc.epoch != ep) {
    tc.epoch = ep;
    tc.next = tc.end = 0;
  }
  if (tc.next == tc.end) {
    const std::size_t base =
        g_cursor.fetch_add(kChunkSamples, std::memory_order_relaxed);
    if (base >= g_capacity) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      errno = saved_errno;
      g_inflight.fetch_sub(1, std::memory_order_release);
      return;
    }
    tc.next = base;
    tc.end = std::min(base + kChunkSamples, g_capacity);
  }

  void* frames[kProfilerMaxDepth + kSkipFrames];
  const int n =
      ::backtrace(frames, static_cast<int>(g_depth_cap) + kSkipFrames);
  SlotHeader* s = slot_at(tc.next);
  std::uintptr_t* pcs = slot_pcs(s);
  std::uint32_t depth = 0;
  for (int i = std::min(n, kSkipFrames);
       i < n && depth < static_cast<std::uint32_t>(g_depth_cap); ++i) {
    pcs[depth++] = reinterpret_cast<std::uintptr_t>(frames[i]);
  }
  s->depth = depth;
  s->stage = t_stage;
  s->ready.store(1, std::memory_order_release);
  ++tc.next;
  g_published.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
  g_inflight.fetch_sub(1, std::memory_order_release);
}

/// Spin until no handler is between the in-flight increments. Called with
/// g_armed already false (or before arming), so the wait is bounded by one
/// handler execution per thread.
void drain_inflight() noexcept {
  while (g_inflight.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void disarm_timer() noexcept {
  if (g_timer_valid) {
    timer_delete(g_timer);
    g_timer_valid = false;
  }
  if (g_itimer_valid) {
    itimerval zero{};
    setitimer(ITIMER_PROF, &zero, nullptr);
    g_itimer_valid = false;
  }
}

bool arm_timer(int hz) noexcept {
  // Preferred: a POSIX timer on the process CPU clock. Linux delivers the
  // expiry signal to a currently running thread, so samples land on the
  // threads actually burning CPU.
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  const long long period_ns = 1000000000LL / hz;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &g_timer) == 0) {
    itimerspec its{};
    its.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000LL);
    its.it_interval.tv_nsec = static_cast<long>(period_ns % 1000000000LL);
    its.it_value = its.it_interval;
    if (timer_settime(g_timer, 0, &its, nullptr) == 0) {
      g_timer_valid = true;
      return true;
    }
    timer_delete(g_timer);
  }
  // Fallback: the classic profiling interval timer (same CPU-clock
  // semantics, microsecond granularity).
  itimerval itv{};
  const long long period_us = std::max(1LL, 1000000LL / hz);
  itv.it_interval.tv_sec = static_cast<time_t>(period_us / 1000000LL);
  itv.it_interval.tv_usec = static_cast<suseconds_t>(period_us % 1000000LL);
  itv.it_value = itv.it_interval;
  if (setitimer(ITIMER_PROF, &itv, nullptr) == 0) {
    g_itimer_valid = true;
    return true;
  }
  return false;
}

}  // namespace

bool Profiler::start(const ProfilerOptions& opts) {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_armed.load(std::memory_order_relaxed)) return false;
  drain_inflight();  // stragglers from the previous session

  ProfilerOptions o = opts;
  o.hz = std::clamp(o.hz, 1, 10000);
  o.max_depth = std::clamp(o.max_depth, std::size_t{4}, kProfilerMaxDepth);
  o.capacity = std::clamp(o.capacity, kChunkSamples, std::size_t{1} << 22);

  const std::size_t stride =
      (sizeof(SlotHeader) + o.max_depth * sizeof(std::uintptr_t) + 7u) & ~7u;
  if (g_arena == nullptr || g_stride != stride || g_capacity != o.capacity) {
    delete[] g_arena;
    g_arena = new (std::nothrow) std::byte[stride * o.capacity];
    if (g_arena == nullptr) {
      g_capacity = 0;
      return false;
    }
    g_stride = stride;
    g_capacity = o.capacity;
  }
  g_depth_cap = o.max_depth;
  for (std::size_t i = 0; i < g_capacity; ++i) {
    ::new (g_arena + i * g_stride) SlotHeader{{0}, 0, nullptr};
  }
  g_cursor.store(0, std::memory_order_relaxed);
  g_published.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  opts_ = o;

  // Warm up the unwinder: backtrace()'s first call loads libgcc, which
  // mallocs and takes the loader lock — do it here, never in the handler.
  void* warm[4];
  (void)::backtrace(warm, 4);

  if (!g_handler_installed) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = &sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) return false;
    // Left installed for the process lifetime: restoring the previous
    // disposition at stop() could race a queued SIGPROF into SIG_DFL
    // (which terminates). Disarmed, the handler is one atomic load.
    g_handler_installed = true;
  }

  g_armed.store(true, std::memory_order_release);
  if (!arm_timer(o.hz)) {
    g_armed.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

void Profiler::stop() {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (!g_armed.exchange(false, std::memory_order_acq_rel)) return;
  disarm_timer();
  drain_inflight();
}

bool Profiler::running() const noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::sample_count() const noexcept {
  return g_published.load(std::memory_order_relaxed);
}

std::uint64_t Profiler::dropped() const noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::vector<ProfileSample> Profiler::samples() const {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  std::vector<ProfileSample> out;
  if (g_arena == nullptr) return out;
  const std::size_t claimed =
      std::min(g_cursor.load(std::memory_order_relaxed), g_capacity);
  out.reserve(g_published.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < claimed; ++i) {
    SlotHeader* s = slot_at(i);
    if (s->ready.load(std::memory_order_acquire) != 1) continue;
    const std::uint32_t depth = std::min(
        s->depth, static_cast<std::uint32_t>(g_depth_cap));
    if (depth == 0) continue;
    ProfileSample ps;
    ps.stage = s->stage;
    const std::uintptr_t* pcs = slot_pcs(s);
    ps.pcs.assign(pcs, pcs + depth);
    out.push_back(std::move(ps));
  }
  return out;
}

std::string Profiler::folded() const {
  return fold_profile(samples(), [](std::uintptr_t pc) {
    return symbolize_pc(pc);
  });
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

const char* set_profile_stage(const char* stage) noexcept {
  const char* prev = t_stage;
  t_stage = stage;
  return prev;
}

const char* profile_stage() noexcept { return t_stage; }

}  // namespace real

// ---------------------------------------------------------------------------
// Symbolization.
// ---------------------------------------------------------------------------

namespace {

/// Function symbols of the main executable, read from /proc/self/exe's
/// .symtab + .dynsym. This is what resolves internal-linkage frames
/// (anonymous namespaces, lambdas, file-static helpers) that dladdr cannot
/// see — and *misattributes* to the nearest exported symbol — without
/// requiring -rdynamic. Built once, lazily, at export time.
class ElfSymtab {
 public:
  static const ElfSymtab& instance() {
    static ElfSymtab tab;
    return tab;
  }

  /// The main module's load base (what dladdr reports as dli_fbase for
  /// main-binary addresses); nullptr when detection failed.
  [[nodiscard]] const void* main_base() const noexcept { return base_; }

  /// Mangled name of the function covering `pc`, or nullptr.
  [[nodiscard]] const char* lookup(std::uintptr_t pc) const noexcept {
    if (syms_.empty()) return nullptr;
    const std::uintptr_t va = pc - bias_;
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), va,
        [](std::uintptr_t v, const Sym& s) { return v < s.addr; });
    if (it == syms_.begin()) return nullptr;
    --it;
    if (va < it->addr || va >= it->end) return nullptr;
    return names_[it->name].c_str();
  }

 private:
  struct Sym {
    std::uintptr_t addr;
    std::uintptr_t end;
    std::size_t name;
  };

  ElfSymtab() {
    // Anchor: an address known to live in the main module, used both to
    // learn the load base and to reject non-main-module lookups.
    Dl_info info{};
    if (dladdr(reinterpret_cast<void*>(&real::set_profile_stage), &info) != 0)
      base_ = info.dli_fbase;

    std::ifstream in("/proc/self/exe", std::ios::binary);
    if (!in) return;
    std::vector<char> image((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (image.size() < sizeof(Elf64_Ehdr)) return;
    const auto* ehdr = reinterpret_cast<const Elf64_Ehdr*>(image.data());
    if (std::memcmp(ehdr->e_ident, ELFMAG, SELFMAG) != 0 ||
        ehdr->e_ident[EI_CLASS] != ELFCLASS64)
      return;
    // ET_DYN (PIE) symbols are load-base relative; ET_EXEC are absolute.
    bias_ = ehdr->e_type == ET_DYN
                ? reinterpret_cast<std::uintptr_t>(base_)
                : 0;
    if (ehdr->e_shoff == 0 ||
        ehdr->e_shoff + std::uint64_t{ehdr->e_shnum} * ehdr->e_shentsize >
            image.size())
      return;
    const auto shdr_at = [&](std::size_t i) {
      return reinterpret_cast<const Elf64_Shdr*>(
          image.data() + ehdr->e_shoff + i * ehdr->e_shentsize);
    };
    for (std::size_t si = 0; si < ehdr->e_shnum; ++si) {
      const Elf64_Shdr* sh = shdr_at(si);
      if (sh->sh_type != SHT_SYMTAB && sh->sh_type != SHT_DYNSYM) continue;
      if (sh->sh_link >= ehdr->e_shnum) continue;
      const Elf64_Shdr* str = shdr_at(sh->sh_link);
      if (str->sh_offset + str->sh_size > image.size() ||
          sh->sh_offset + sh->sh_size > image.size())
        continue;
      const char* strtab = image.data() + str->sh_offset;
      const std::size_t nsyms = sh->sh_size / sizeof(Elf64_Sym);
      for (std::size_t i = 0; i < nsyms; ++i) {
        const auto* sym = reinterpret_cast<const Elf64_Sym*>(
            image.data() + sh->sh_offset + i * sizeof(Elf64_Sym));
        if (ELF64_ST_TYPE(sym->st_info) != STT_FUNC || sym->st_value == 0)
          continue;
        if (sym->st_name >= str->sh_size) continue;
        const char* name = strtab + sym->st_name;
        if (*name == '\0') continue;
        Sym s;
        s.addr = sym->st_value;
        s.end = sym->st_value + std::max<std::uint64_t>(sym->st_size, 1);
        s.name = names_.size();
        names_.emplace_back(name);
        syms_.push_back(s);
      }
    }
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.addr < b.addr; });
    // Zero-size symbols (assembly, some PLT stubs) extend to the next
    // symbol's start so lookups inside them still resolve.
    for (std::size_t i = 0; i + 1 < syms_.size(); ++i) {
      if (syms_[i].end <= syms_[i].addr + 1)
        syms_[i].end = std::max(syms_[i].end, syms_[i + 1].addr);
    }
  }

  const void* base_ = nullptr;
  std::uintptr_t bias_ = 0;
  std::vector<Sym> syms_;
  std::vector<std::string> names_;
};

std::string demangled(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && out != nullptr) {
    std::string result(out);
    std::free(out);
    return result;
  }
  std::free(out);
  return name;
}

std::string module_basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

std::string hex_pc(std::uintptr_t pc) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

/// Folded-format hygiene: ';' is the frame separator and newline the line
/// separator, so neither may appear inside a frame name.
std::string sanitize_frame(std::string name) {
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == '\n' || c == '\r') c = ' ';
  }
  return name;
}

/// Root-first symbolized frame names for one sample. Non-leaf pcs are
/// return addresses: symbolize at pc-1 so the frame names the call site.
std::vector<std::string> frame_names(const ProfileSample& s,
                                     const SymbolizeFn& symbolize,
                                     std::map<std::uintptr_t, std::string>&
                                         cache) {
  std::vector<std::string> names;
  names.reserve(s.pcs.size() + 1);
  if (s.stage != nullptr) {
    names.push_back(sanitize_frame(std::string("stage:") + s.stage));
  }
  for (std::size_t i = s.pcs.size(); i-- > 0;) {
    const bool leaf = i == 0;  // pcs are leaf-first
    const std::uintptr_t addr = leaf ? s.pcs[i] : s.pcs[i] - 1;
    auto it = cache.find(addr);
    if (it == cache.end()) {
      it = cache.emplace(addr, sanitize_frame(symbolize(addr))).first;
    }
    names.push_back(it->second);
  }
  return names;
}

std::map<std::string, std::uint64_t> aggregate_folded(
    const std::vector<ProfileSample>& samples, const SymbolizeFn& symbolize) {
  std::map<std::string, std::uint64_t> stacks;
  std::map<std::uintptr_t, std::string> cache;
  for (const ProfileSample& s : samples) {
    if (s.pcs.empty()) continue;
    const std::vector<std::string> names = frame_names(s, symbolize, cache);
    std::string key;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) key += ';';
      key += names[i];
    }
    ++stacks[key];
  }
  return stacks;
}

}  // namespace

std::string symbolize_pc(std::uintptr_t pc) {
  const ElfSymtab& tab = ElfSymtab::instance();
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
    if (info.dli_fbase == tab.main_base()) {
      // Main binary: trust our own symtab (dladdr only sees the dynamic
      // table and would blame the nearest *exported* symbol).
      if (const char* name = tab.lookup(pc)) return demangled(name);
      if (info.dli_sname != nullptr) return demangled(info.dli_sname);
    } else if (info.dli_sname != nullptr) {
      return demangled(info.dli_sname);
    }
    if (info.dli_fname != nullptr && *info.dli_fname != '\0') {
      return "[" + module_basename(info.dli_fname) + "]";
    }
  } else if (const char* name = tab.lookup(pc)) {
    return demangled(name);
  }
  return hex_pc(pc);
}

std::string fold_profile(const std::vector<ProfileSample>& samples,
                         const SymbolizeFn& symbolize) {
  std::string out;
  for (const auto& [stack, count] : aggregate_folded(samples, symbolize)) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace ftl::obs
