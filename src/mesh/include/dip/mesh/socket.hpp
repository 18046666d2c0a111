// Datagram socket seam: real nonblocking UDP on loopback, and an in-memory
// fabric for deterministic unit tests.
//
// The mesh never blocks in socket calls: sends that would block are
// surfaced as kAgain (the caller accounts them — a full transmit queue is a
// ledger bucket, not a silent stall), and receives drain until kAgain.
// Truncation is reported, never hidden: UdpSocket reads with MSG_TRUNC so a
// datagram bigger than the caller's buffer still reports its true size, the
// exact contract MockSocket mirrors — event-loop tests script EAGAIN and
// truncated deliveries without touching a real socket or sleeping.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace dip::mesh {

/// A UDP endpoint on the loopback mesh (host order).
struct Endpoint {
  std::uint32_t ip = 0x7F000001;  ///< 127.0.0.1
  std::uint16_t port = 0;

  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

enum class IoStatus : std::uint8_t {
  kOk,
  kAgain,  ///< would block (EAGAIN/ENOBUFS); caller decides the bucket
  kError,  ///< unrecoverable socket error
};

struct RecvOutcome {
  IoStatus status = IoStatus::kAgain;
  /// True datagram size (may exceed the buffer: then `truncated` is set and
  /// only buffer-many bytes were written).
  std::size_t size = 0;
  bool truncated = false;
  Endpoint from{};
};

class DatagramSocket {
 public:
  virtual ~DatagramSocket() = default;

  /// Poll handle; < 0 for in-memory sockets (the event loop then asks
  /// poll_readable() instead of poll(2)).
  [[nodiscard]] virtual int fd() const noexcept = 0;
  [[nodiscard]] virtual bool poll_readable() const noexcept = 0;
  [[nodiscard]] virtual Endpoint local_endpoint() const noexcept = 0;

  [[nodiscard]] virtual IoStatus send_to(const Endpoint& to,
                                         std::span<const std::uint8_t> bytes) = 0;
  [[nodiscard]] virtual RecvOutcome recv_from(std::span<std::uint8_t> buf) = 0;
};

/// Nonblocking AF_INET UDP socket bound to 127.0.0.1 (port 0 = ephemeral).
/// Buffers are raised toward the rmem/wmem ceiling at construction so burst
/// fan-in on a 100+-node single-host mesh does not shed in the kernel.
class UdpSocket final : public DatagramSocket {
 public:
  /// Throws std::system_error if socket/bind fails (deployment error, not a
  /// data-path condition).
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] int fd() const noexcept override { return fd_; }
  [[nodiscard]] bool poll_readable() const noexcept override;
  [[nodiscard]] Endpoint local_endpoint() const noexcept override { return local_; }

  [[nodiscard]] IoStatus send_to(const Endpoint& to,
                                 std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] RecvOutcome recv_from(std::span<std::uint8_t> buf) override;

 private:
  int fd_ = -1;
  Endpoint local_;
};

class MockSocket;

/// Switchboard for in-memory sockets: routes send_to() by destination
/// endpoint to the socket bound there. Single-threaded, fully deterministic
/// (FIFO per inbox), no kernel involvement.
class MockFabric {
 public:
  /// Bind a new socket at `port` (must be unused on this fabric).
  [[nodiscard]] std::unique_ptr<MockSocket> create(std::uint16_t port);

  /// Datagrams sent to endpoints nobody is bound to (dropped on the floor,
  /// like real UDP).
  [[nodiscard]] std::uint64_t unrouted() const noexcept { return unrouted_; }

 private:
  friend class MockSocket;
  struct Datagram {
    Endpoint from;
    std::vector<std::uint8_t> bytes;
  };
  struct Inbox {
    std::deque<Datagram> queue;
  };

  std::map<Endpoint, std::shared_ptr<Inbox>> inboxes_;
  std::uint64_t unrouted_ = 0;
};

/// In-memory DatagramSocket on a MockFabric, with scripted failure modes
/// for the event-loop unit tests.
class MockSocket final : public DatagramSocket {
 public:
  [[nodiscard]] int fd() const noexcept override { return -1; }
  [[nodiscard]] bool poll_readable() const noexcept override {
    return !inbox_->queue.empty();
  }
  [[nodiscard]] Endpoint local_endpoint() const noexcept override { return local_; }

  [[nodiscard]] IoStatus send_to(const Endpoint& to,
                                 std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] RecvOutcome recv_from(std::span<std::uint8_t> buf) override;

  /// The next `n` send_to() calls return kAgain (a full transmit queue).
  void fail_next_sends(std::uint32_t n) noexcept { fail_sends_ = n; }
  /// The next recv_from() reports kAgain once even if the inbox is
  /// nonempty (a spurious wakeup).
  void spurious_wakeup_once() noexcept { spurious_ = true; }

 private:
  friend class MockFabric;
  MockSocket(MockFabric* fabric, Endpoint local,
             std::shared_ptr<MockFabric::Inbox> inbox)
      : fabric_(fabric), local_(local), inbox_(std::move(inbox)) {}

  MockFabric* fabric_;
  Endpoint local_;
  std::shared_ptr<MockFabric::Inbox> inbox_;
  std::uint32_t fail_sends_ = 0;
  bool spurious_ = false;
};

}  // namespace dip::mesh
