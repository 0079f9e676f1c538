// The ftlcoordd binary as a child process: flag validation, the first
// stdout line that clients parse for the ports, and a clean exit on
// SIGTERM. ctest registers each case as its own entry.
//
// The daemon's path is injected by CMake as FTL_FTLCOORDD_BIN.
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ftlcoordd/net.hpp"
#include "ftlcoordd/protocol.hpp"

namespace ftl::coordd {
namespace {

using Clock = std::chrono::steady_clock;

/// A running ftlcoordd child with its stdout and stderr on one pipe.
class Child {
 public:
  explicit Child(const std::vector<std::string>& flags) {
    std::vector<std::string> args = {FTL_FTLCOORDD_BIN};
    args.insert(args.end(), flags.begin(), flags.end());
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    fd_ = fds[0];
  }
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait(std::chrono::seconds(10));
    }
    if (fd_ >= 0) ::close(fd_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0 && fd_ >= 0; }

  /// Output up to the first newline, or everything read before EOF or the
  /// timeout.
  std::string first_line(std::chrono::seconds timeout) {
    while (output_.find('\n') == std::string::npos && pump(timeout)) {
    }
    return output_.substr(0, output_.find('\n'));
  }

  /// Waits for the child to exit, reading its output meanwhile. Returns the
  /// exit code, 128 + the signal when killed, or -1 on timeout.
  int wait(std::chrono::seconds timeout) {
    const auto deadline = Clock::now() + timeout;
    while (pid_ > 0) {
      int status = 0;
      const pid_t got = ::waitpid(pid_, &status, WNOHANG);
      if (got == pid_) {
        pid_ = -1;
        while (pump(std::chrono::seconds(0))) {
        }
        return WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
      }
      if (Clock::now() > deadline) return -1;
      (void)pump(std::chrono::seconds(0));
      ::usleep(10'000);
    }
    return -1;
  }

  void signal(int sig) const {
    if (pid_ > 0) ::kill(pid_, sig);
  }
  [[nodiscard]] const std::string& output() const { return output_; }

 private:
  /// Reads what is there within `timeout`; false at EOF or timeout.
  bool pump(std::chrono::seconds timeout) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(timeout)
            .count());
    if (::poll(&pfd, 1, ms) <= 0) return false;
    char buf[1024];
    const ssize_t got = ::read(fd_, buf, sizeof buf);
    if (got <= 0) return false;
    output_.append(buf, static_cast<std::size_t>(got));
    return true;
  }

  pid_t pid_ = -1;
  int fd_ = -1;
  std::string output_;
};

TEST(FtlcoorddProcess, OutOfRangeFlagsPrintUsageAndExit2) {
  // Each of these once aborted in a library assert, died in an unrelated
  // metric registration, or was served as something else.
  const std::vector<std::vector<std::string>> bad = {
      {"--port", "70000"},         {"--metrics-port", "-1"},
      {"--sources", "0"},          {"--slots", "0"},
      {"--max-pending", "0"},      {"--pair-rate", "0"},
      {"--pair-rate", "inf"},      {"--fiber-km", "-1"},
      {"--fiber-km", "nan"},       {"--t1-us", "0"},
      {"--t2-us", "0"},            {"--t2-us", "1001"},
      {"--visibility", "0.5"},     {"--visibility", "1.5"},
      {"--max-storage-us", "0"},
  };
  for (const std::vector<std::string>& flags : bad) {
    std::vector<std::string> args = {"--metrics-port", "0", "--port", "0",
                                     "--duration", "1"};
    args.insert(args.end(), flags.begin(), flags.end());
    Child child(args);
    ASSERT_TRUE(child.started());
    const int code = child.wait(std::chrono::seconds(10));
    EXPECT_EQ(code, 2) << flags[0] << " " << flags[1] << "\n"
                       << child.output();
    EXPECT_NE(child.output().find("usage: "), std::string::npos)
        << flags[0] << " " << flags[1];
  }
}

TEST(FtlcoorddProcess, ServesTheBenchmarkLineAndExitsOnSigterm) {
  // The exact flags the repository benchmark starts the daemon with.
  Child child({"--port", "0", "--metrics-port", "0", "--sources", "2",
               "--pair-rate", "2000000", "--fiber-km", "0", "--seed", "7"});
  ASSERT_TRUE(child.started());
  const std::string line = child.first_line(std::chrono::seconds(10));
  unsigned port = 0;
  unsigned metrics_port = 0;
  const std::size_t at = line.find("127.0.0.1:");
  const std::size_t at2 = line.find("127.0.0.1:", at + 1);
  ASSERT_NE(at, std::string::npos) << line;
  ASSERT_NE(at2, std::string::npos) << line;
  ASSERT_EQ(std::sscanf(line.c_str() + at, "127.0.0.1:%u", &port), 1);
  ASSERT_EQ(std::sscanf(line.c_str() + at2, "127.0.0.1:%u", &metrics_port),
            1);
  EXPECT_GT(port, 0u);
  EXPECT_GT(metrics_port, 0u);
  EXPECT_NE(line.find("decide on 127.0.0.1:"), std::string::npos) << line;
  EXPECT_NE(line.find("/metrics on 127.0.0.1:"), std::string::npos) << line;

  // Serve one frame, then keep the connection open through SIGTERM.
  const int fd = connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
  ASSERT_GE(fd, 0);
  DecideRequestV2 req;
  req.source = 1;
  req.inputs = {0, 1, 1, 0};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(write_frame(fd, encode_decide_request_v2(req)));
  ASSERT_TRUE(read_frame(fd, payload));
  const auto entries = decode_decide_response(payload);
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(entries->size(), req.inputs.size());

  child.signal(SIGTERM);
  EXPECT_EQ(child.wait(std::chrono::seconds(10)), 0) << child.output();
  close_fd(fd);
}

}  // namespace
}  // namespace ftl::coordd
