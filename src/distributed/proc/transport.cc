#include "distributed/proc/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

namespace ptucker {

namespace {

std::string ErrnoText(int err) { return std::string(std::strerror(err)); }

}  // namespace

// ---------------------------------------------------------------------------
// FrameChannel: framing over the raw byte primitives
// ---------------------------------------------------------------------------

void FrameChannel::SendFrame(DistOpcode opcode, std::uint64_t tag,
                             const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame =
      EncodeDistFrame(opcode, tag, payload);
  RawSendAll(frame.data(), frame.size());
  bytes_sent_ += static_cast<std::int64_t>(frame.size());
}

void FrameChannel::SendRaw(const std::uint8_t* data, std::size_t size) {
  RawSendAll(data, size);
  bytes_sent_ += static_cast<std::int64_t>(size);
}

DistFrame FrameChannel::RecvFrame() {
  for (;;) {
    if (recv_offset_ < recv_buffer_.size()) {
      DistFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeResult result = DecodeDistFrame(
          recv_buffer_.data() + recv_offset_,
          recv_buffer_.size() - recv_offset_, &frame, &consumed, &error);
      if (result == DecodeResult::kError) {
        throw DistError("malformed DIST frame: " + error);
      }
      if (result == DecodeResult::kFrame) {
        recv_offset_ += consumed;
        if (recv_offset_ == recv_buffer_.size()) {
          recv_buffer_.clear();
          recv_offset_ = 0;
        }
        return frame;
      }
    }
    std::uint8_t chunk[65536];
    const std::size_t n = RawRecvSome(chunk, sizeof(chunk));
    if (n == 0) {
      if (recv_offset_ < recv_buffer_.size()) {
        throw DistError(
            "connection closed mid-frame (peer died with " +
            std::to_string(recv_buffer_.size() - recv_offset_) +
            " bytes of an incomplete DIST frame in flight)");
      }
      throw DistError("connection closed (peer exited or was killed)");
    }
    recv_buffer_.insert(recv_buffer_.end(), chunk, chunk + n);
    bytes_received_ += static_cast<std::int64_t>(n);
  }
}

// ---------------------------------------------------------------------------
// FdChannel: socketpair / TCP file descriptors (both are stream sockets)
// ---------------------------------------------------------------------------

namespace {

class FdChannel : public FrameChannel {
 public:
  FdChannel(int fd, int timeout_ms) : fd_(fd), timeout_ms_(timeout_ms) {}

  ~FdChannel() override { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void CloseSend() override {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

 protected:
  void RawSendAll(const std::uint8_t* data, std::size_t size) override {
    std::size_t sent = 0;
    while (sent < size) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a SIGPIPE kill.
      const ssize_t n =
          ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw DistError("send failed: " + ErrnoText(errno) +
                        " (peer closed the connection?)");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  std::size_t RawRecvSome(std::uint8_t* data, std::size_t size) override {
    for (;;) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, timeout_ms_);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw DistError("poll failed: " + ErrnoText(errno));
      }
      if (ready == 0) {
        throw DistError("receive timed out after " +
                        std::to_string(timeout_ms_) +
                        " ms (peer hung or deadlocked)");
      }
      const ssize_t n = ::recv(fd_, data, size, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) return 0;  // abrupt peer death == EOF
        throw DistError("recv failed: " + ErrnoText(errno));
      }
      return static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  int timeout_ms_;
};

// ---------------------------------------------------------------------------
// InProcChannel: in-memory duplex byte queues (the in-process cluster)
// ---------------------------------------------------------------------------

struct ByteQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint8_t> data;
  std::size_t offset = 0;
  bool closed = false;

  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
    cv.notify_all();
  }
};

class InProcChannel : public FrameChannel {
 public:
  InProcChannel(std::shared_ptr<ByteQueue> send_queue,
                std::shared_ptr<ByteQueue> recv_queue, int timeout_ms)
      : send_queue_(std::move(send_queue)),
        recv_queue_(std::move(recv_queue)),
        timeout_ms_(timeout_ms) {}

  void CloseSend() override { send_queue_->Close(); }

 protected:
  void RawSendAll(const std::uint8_t* data, std::size_t size) override {
    std::lock_guard<std::mutex> lock(send_queue_->mutex);
    if (send_queue_->closed) {
      throw DistError("send failed: peer queue closed (worker gone?)");
    }
    send_queue_->data.insert(send_queue_->data.end(), data, data + size);
    send_queue_->cv.notify_all();
  }

  std::size_t RawRecvSome(std::uint8_t* data, std::size_t size) override {
    std::unique_lock<std::mutex> lock(recv_queue_->mutex);
    const bool got = recv_queue_->cv.wait_for(
        lock, std::chrono::milliseconds(timeout_ms_), [this] {
          return recv_queue_->offset < recv_queue_->data.size() ||
                 recv_queue_->closed;
        });
    if (!got) {
      throw DistError("receive timed out after " +
                      std::to_string(timeout_ms_) +
                      " ms (peer hung or deadlocked)");
    }
    const std::size_t available =
        recv_queue_->data.size() - recv_queue_->offset;
    if (available == 0) return 0;  // closed and drained: EOF
    const std::size_t n = available < size ? available : size;
    std::memcpy(data, recv_queue_->data.data() + recv_queue_->offset, n);
    recv_queue_->offset += n;
    if (recv_queue_->offset == recv_queue_->data.size()) {
      recv_queue_->data.clear();
      recv_queue_->offset = 0;
    }
    return n;
  }

 private:
  std::shared_ptr<ByteQueue> send_queue_;
  std::shared_ptr<ByteQueue> recv_queue_;
  int timeout_ms_;
};

// ---------------------------------------------------------------------------
// Worker-side wrapper shared by every transport
// ---------------------------------------------------------------------------

// Runs HELLO + the worker body; returns the worker's exit status. Never
// throws: the coordinator owns failure reporting, the worker just goes
// away (its EOF is the signal).
int RunWorkerBody(const WorkerMain& worker_main, std::int64_t rank,
                  std::int64_t workers, FrameChannel& channel) {
  try {
    channel.SendFrame(DistOpcode::kHello, 0,
                      EncodeHello(rank, workers, kDistProtocolVersion));
    worker_main(rank, channel);
    channel.CloseSend();
    return 0;
  } catch (const DistError&) {
    // Coordinator died or aborted mid-protocol; exit quietly.
    channel.CloseSend();
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptucker dist worker %lld failed: %s\n",
                 static_cast<long long>(rank), e.what());
    channel.CloseSend();
    return 4;
  }
}

// ---------------------------------------------------------------------------
// Fork-based transports (socketpair and loopback TCP)
// ---------------------------------------------------------------------------

class ForkTransport : public ClusterTransport {
 public:
  ForkTransport(DistTransport kind, std::int64_t workers,
                const WorkerMain& worker_main, int timeout_ms)
      : timeout_ms_(timeout_ms) {
    pids_.resize(static_cast<std::size_t>(workers), -1);
    channels_.resize(static_cast<std::size_t>(workers));
    try {
      if (kind == DistTransport::kTcp) {
        LaunchTcp(workers, worker_main);
      } else {
        LaunchSocketpair(workers, worker_main);
      }
      BindHellos(workers, kind == DistTransport::kTcp);
    } catch (...) {
      Abort();
      throw;
    }
  }

  ~ForkTransport() override { Abort(); }

  std::int64_t workers() const override {
    return static_cast<std::int64_t>(pids_.size());
  }

  FrameChannel& Channel(std::int64_t rank) override {
    return *channels_[static_cast<std::size_t>(rank)];
  }

  void Shutdown() override {
    // The protocol's BYE already ran; workers are exiting on their own.
    for (auto& channel : channels_) {
      if (channel) channel->CloseSend();
    }
    for (std::size_t r = 0; r < pids_.size(); ++r) {
      if (pids_[r] < 0) continue;
      if (!WaitPid(pids_[r], /*grace_ms=*/5000)) {
        ::kill(pids_[r], SIGKILL);
        WaitPid(pids_[r], /*grace_ms=*/-1);
      }
      pids_[r] = -1;
    }
    channels_.clear();
    channels_.resize(pids_.size());
  }

  void Abort() override {
    for (std::size_t r = 0; r < pids_.size(); ++r) {
      if (pids_[r] < 0) continue;
      ::kill(pids_[r], SIGKILL);
      WaitPid(pids_[r], /*grace_ms=*/-1);
      pids_[r] = -1;
    }
    for (auto& channel : channels_) channel.reset();
  }

 private:
  // Waits for `pid`; grace_ms < 0 blocks until it is reaped. Returns
  // true when the child was reaped.
  static bool WaitPid(pid_t pid, int grace_ms) {
    if (grace_ms < 0) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      return true;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    for (;;) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  [[noreturn]] static void ChildMain(const WorkerMain& worker_main,
                                     std::int64_t rank, std::int64_t workers,
                                     int fd, int timeout_ms) {
    // Die with the coordinator: a crashed test binary must not leave
    // orphan solver processes behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int status = 0;
    {
      FdChannel channel(fd, timeout_ms);
      status = RunWorkerBody(worker_main, rank, workers, channel);
    }
    // _exit, not exit: the child must not run the parent's atexit
    // handlers (gtest, OpenMP, stdio) it inherited mid-flight.
    ::_exit(status);
  }

  void LaunchSocketpair(std::int64_t workers, const WorkerMain& worker_main) {
    struct Pair {
      int parent_fd;
      int child_fd;
    };
    std::vector<Pair> pairs;
    pairs.reserve(static_cast<std::size_t>(workers));
    for (std::int64_t r = 0; r < workers; ++r) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw DistError("socketpair failed: " + ErrnoText(errno));
      }
      pairs.push_back({fds[0], fds[1]});
    }
    for (std::int64_t r = 0; r < workers; ++r) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        for (const Pair& p : pairs) {
          ::close(p.parent_fd);
          ::close(p.child_fd);
        }
        throw DistError("fork failed: " + ErrnoText(errno));
      }
      if (pid == 0) {
        // Child: keep only this rank's fd.
        for (std::int64_t o = 0; o < workers; ++o) {
          ::close(pairs[static_cast<std::size_t>(o)].parent_fd);
          if (o != r) ::close(pairs[static_cast<std::size_t>(o)].child_fd);
        }
        ChildMain(worker_main, r, workers,
                  pairs[static_cast<std::size_t>(r)].child_fd, timeout_ms_);
      }
      pids_[static_cast<std::size_t>(r)] = pid;
    }
    for (std::int64_t r = 0; r < workers; ++r) {
      const Pair& p = pairs[static_cast<std::size_t>(r)];
      ::close(p.child_fd);
      channels_[static_cast<std::size_t>(r)] =
          std::make_unique<FdChannel>(p.parent_fd, timeout_ms_);
    }
  }

  void LaunchTcp(std::int64_t workers, const WorkerMain& worker_main) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
      throw DistError("socket failed: " + ErrnoText(errno));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listener, static_cast<int>(workers)) != 0) {
      const int err = errno;
      ::close(listener);
      throw DistError("bind/listen failed: " + ErrnoText(err));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      const int err = errno;
      ::close(listener);
      throw DistError("getsockname failed: " + ErrnoText(err));
    }

    for (std::int64_t r = 0; r < workers; ++r) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        const int err = errno;
        ::close(listener);
        throw DistError("fork failed: " + ErrnoText(err));
      }
      if (pid == 0) {
        ::close(listener);
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) != 0) {
          ::_exit(5);
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ChildMain(worker_main, r, workers, fd, timeout_ms_);
      }
      pids_[static_cast<std::size_t>(r)] = pid;
    }

    // Accept one connection per worker; HELLO binds them to ranks later.
    std::vector<std::unique_ptr<FdChannel>> accepted;
    for (std::int64_t r = 0; r < workers; ++r) {
      struct pollfd pfd;
      pfd.fd = listener;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, timeout_ms_);
      if (ready <= 0) {
        ::close(listener);
        throw DistError("worker TCP connect timed out");
      }
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        const int err = errno;
        ::close(listener);
        throw DistError("accept failed: " + ErrnoText(err));
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      accepted.push_back(std::make_unique<FdChannel>(fd, timeout_ms_));
    }
    ::close(listener);
    unbound_ = std::move(accepted);
  }

  // Consumes each worker's HELLO. Socketpair channels are already in
  // rank order; TCP channels arrive in connect order and are bound to
  // their rank here.
  void BindHellos(std::int64_t workers, bool tcp) {
    auto check_hello = [&](FrameChannel& channel, std::int64_t expected_rank,
                           std::int64_t* rank_out) {
      const DistFrame frame = channel.RecvFrame();
      if (frame.opcode != DistOpcode::kHello) {
        throw DistError("expected HELLO, got opcode " +
                        std::to_string(static_cast<unsigned>(frame.opcode)));
      }
      std::int64_t rank = 0, size = 0;
      std::uint32_t version = 0;
      std::string error;
      if (!ParseHello(frame.payload, &rank, &size, &version, &error)) {
        throw DistError("bad HELLO: " + error);
      }
      if (version != kDistProtocolVersion) {
        throw DistError("worker speaks PTKD v" + std::to_string(version) +
                        ", coordinator speaks v" +
                        std::to_string(kDistProtocolVersion));
      }
      if (size != workers || rank < 0 || rank >= workers ||
          (expected_rank >= 0 && rank != expected_rank)) {
        throw DistError("HELLO rank " + std::to_string(rank) + "/" +
                        std::to_string(size) +
                        " does not match the launched cluster");
      }
      *rank_out = rank;
    };

    if (!tcp) {
      for (std::int64_t r = 0; r < workers; ++r) {
        std::int64_t rank = 0;
        check_hello(*channels_[static_cast<std::size_t>(r)], r, &rank);
      }
      return;
    }
    for (auto& channel : unbound_) {
      std::int64_t rank = 0;
      check_hello(*channel, -1, &rank);
      if (channels_[static_cast<std::size_t>(rank)]) {
        throw DistError("two workers claimed rank " + std::to_string(rank));
      }
      channels_[static_cast<std::size_t>(rank)] = std::move(channel);
    }
    unbound_.clear();
  }

  int timeout_ms_;
  std::vector<pid_t> pids_;
  std::vector<std::unique_ptr<FdChannel>> channels_;
  std::vector<std::unique_ptr<FdChannel>> unbound_;  // TCP pre-HELLO
};

// ---------------------------------------------------------------------------
// In-process transport (worker threads over in-memory queues)
// ---------------------------------------------------------------------------

class InProcessTransport : public ClusterTransport {
 public:
  InProcessTransport(std::int64_t workers, const WorkerMain& worker_main,
                     int timeout_ms) {
    channels_.reserve(static_cast<std::size_t>(workers));
    worker_channels_.reserve(static_cast<std::size_t>(workers));
    for (std::int64_t r = 0; r < workers; ++r) {
      auto to_worker = std::make_shared<ByteQueue>();
      auto to_coordinator = std::make_shared<ByteQueue>();
      queues_.push_back(to_worker);
      queues_.push_back(to_coordinator);
      channels_.push_back(std::make_unique<InProcChannel>(
          to_worker, to_coordinator, timeout_ms));
      worker_channels_.push_back(std::make_unique<InProcChannel>(
          to_coordinator, to_worker, timeout_ms));
    }
    for (std::int64_t r = 0; r < workers; ++r) {
      FrameChannel* channel =
          worker_channels_[static_cast<std::size_t>(r)].get();
      threads_.emplace_back([worker_main, r, workers, channel] {
        RunWorkerBody(worker_main, r, workers, *channel);
      });
    }
    try {
      BindHellos();
    } catch (...) {
      Abort();
      throw;
    }
  }

  ~InProcessTransport() override { Abort(); }

  std::int64_t workers() const override {
    return static_cast<std::int64_t>(channels_.size());
  }

  FrameChannel& Channel(std::int64_t rank) override {
    return *channels_[static_cast<std::size_t>(rank)];
  }

  void Shutdown() override { Abort(); }

  void Abort() override {
    for (auto& queue : queues_) queue->Close();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  void BindHellos() {
    for (auto& channel : channels_) {
      const DistFrame frame = channel->RecvFrame();
      std::int64_t rank = 0, size = 0;
      std::uint32_t version = 0;
      std::string error;
      if (frame.opcode != DistOpcode::kHello ||
          !ParseHello(frame.payload, &rank, &size, &version, &error) ||
          version != kDistProtocolVersion) {
        throw DistError("bad in-process HELLO" +
                        (error.empty() ? std::string() : ": " + error));
      }
    }
  }

  std::vector<std::shared_ptr<ByteQueue>> queues_;
  std::vector<std::unique_ptr<InProcChannel>> channels_;
  std::vector<std::unique_ptr<InProcChannel>> worker_channels_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::int64_t ClusterTransport::TotalCommBytes() {
  std::int64_t total = 0;
  for (std::int64_t r = 0; r < workers(); ++r) {
    total += Channel(r).bytes_sent() + Channel(r).bytes_received();
  }
  return total;
}

std::unique_ptr<ClusterTransport> LaunchCluster(DistTransport transport,
                                                std::int64_t workers,
                                                const WorkerMain& worker_main,
                                                int recv_timeout_ms) {
  if (workers < 1) {
    throw DistError("distributed: workers must be >= 1");
  }
  if (transport == DistTransport::kInProcess) {
    return std::make_unique<InProcessTransport>(workers, worker_main,
                                                recv_timeout_ms);
  }
  return std::make_unique<ForkTransport>(transport, workers, worker_main,
                                         recv_timeout_ms);
}

}  // namespace ptucker
