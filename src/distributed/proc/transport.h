/// \file
/// \brief Cluster transports for the multi-process solver: the one
/// ClusterTransport interface behind which the in-process cluster
/// (worker threads in this process) and the real transports (forked
/// worker processes over socketpairs or loopback TCP) all run, so tests
/// drive every path through identical code. A transport launches N
/// workers running the caller's WorkerMain against per-rank duplex
/// FrameChannels speaking the PTKD family (dist_wire.h), consumes each
/// worker's HELLO to bind channels to ranks, and owns failure handling:
/// a dead peer, a corrupt frame, or a receive timeout raises DistError
/// with a specific message, and Abort() force-terminates and reaps every
/// worker (SIGKILL + waitpid for processes, queue close + join for
/// threads) so no call path can leak a zombie or hang.
#ifndef PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_
#define PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "distributed/proc/dist_wire.h"

namespace ptucker {

/// Fatal distributed-protocol failure: a peer died, sent bytes that are
/// not a valid PTKD frame, violated the lock-step protocol, or timed
/// out. The message names the peer and the first bad byte/field; the
/// cluster cannot continue past it (the coordinator aborts and reaps).
class DistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One blocking duplex PTKD frame channel between the coordinator and a
/// worker. Send/Recv throw DistError on any failure — EOF (peer died),
/// malformed bytes (convicted at the first bad byte via the shared frame
/// codec), or a receive timeout — after which the channel is unusable.
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  /// Sends one frame; throws DistError when the peer is gone.
  void SendFrame(DistOpcode opcode, std::uint64_t tag,
                 const std::vector<std::uint8_t>& payload);

  /// Sends raw bytes with no framing — fault-injection hook used by
  /// tests to put garbage on the wire exactly where a frame belongs.
  void SendRaw(const std::uint8_t* data, std::size_t size);

  /// Blocks until one full frame arrives (up to the channel timeout).
  /// Throws DistError naming the violation: connection closed, closed
  /// mid-frame, malformed bytes, or timeout.
  DistFrame RecvFrame();

  /// Half-closes the sending side so the peer's next RecvFrame sees a
  /// clean EOF (used by workers on exit and by death fault injection).
  virtual void CloseSend() = 0;

  /// Bytes pushed onto / pulled off the wire so far (comm accounting).
  std::int64_t bytes_sent() const { return bytes_sent_; }
  /// \copydoc bytes_sent
  std::int64_t bytes_received() const { return bytes_received_; }

 protected:
  /// Writes all of `data` or throws DistError.
  virtual void RawSendAll(const std::uint8_t* data, std::size_t size) = 0;
  /// Reads 1..size bytes; returns 0 on EOF; throws DistError on error or
  /// after `timeout_ms` without data.
  virtual std::size_t RawRecvSome(std::uint8_t* data, std::size_t size) = 0;

  std::int64_t bytes_sent_ = 0;      ///< running SendFrame/SendRaw total
  std::int64_t bytes_received_ = 0;  ///< running RecvFrame byte total

 private:
  std::vector<std::uint8_t> recv_buffer_;
  std::size_t recv_offset_ = 0;
};

/// The worker body a transport launches once per rank, against the
/// worker-side end of that rank's channel. For process transports it
/// runs in the forked child; for the in-process transport, on a thread.
using WorkerMain =
    std::function<void(std::int64_t rank, FrameChannel& channel)>;

/// Which transport carries the PTKD protocol.
enum class DistTransport {
  /// Worker threads inside this process over in-memory byte queues.
  /// Identical protocol, no fork, no sockets; what the bit-exactness
  /// property tests sweep.
  kInProcess,
  /// Forked worker processes over AF_UNIX socketpairs (the default).
  kSocketpair,
  /// Forked worker processes over loopback TCP sockets — the same wire
  /// a real multi-host deployment would use.
  kTcp,
};

/// A running cluster of N workers behind rank-indexed channels. The
/// destructor aborts (and always reaps) any workers still running.
class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  /// Number of workers launched.
  virtual std::int64_t workers() const = 0;

  /// Coordinator-side channel to worker `rank`.
  virtual FrameChannel& Channel(std::int64_t rank) = 0;

  /// Graceful teardown after the protocol's SHUTDOWN/BYE exchange:
  /// closes channels and waits for workers to exit; escalates to Abort()
  /// for any worker that fails to exit in time.
  virtual void Shutdown() = 0;

  /// Hard teardown: SIGKILLs worker processes (or closes queues under
  /// worker threads), then reaps every worker (waitpid/join). Never
  /// throws and never leaves a zombie; safe to call more than once.
  virtual void Abort() = 0;

  /// Total bytes moved over every channel, both directions.
  std::int64_t TotalCommBytes();
};

/// Launches `workers` workers running `worker_main` over `transport` and
/// consumes each worker's HELLO (validating rank, cluster size, and
/// protocol version) so the returned transport's channels are bound to
/// ranks and ready for the solve protocol. `recv_timeout_ms` bounds
/// every blocking receive. Throws DistError when a worker fails to come
/// up; workers are reaped before the throw.
std::unique_ptr<ClusterTransport> LaunchCluster(DistTransport transport,
                                                std::int64_t workers,
                                                const WorkerMain& worker_main,
                                                int recv_timeout_ms);

}  // namespace ptucker

#endif  // PTUCKER_DISTRIBUTED_PROC_TRANSPORT_H_
