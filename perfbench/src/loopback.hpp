// Loopback client of the planning service: several non-blocking
// connections driven by one thread. The thread blocks in ppoll until the
// next send is due or a reply arrives; it never spins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// Monotonic clock, nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// What a reply payload says about the request it answers.
[[nodiscard]] ReplyInfo classify_reply(std::string_view payload);

class LoopbackClient {
 public:
    using OnReply = std::function<void(std::size_t connection, std::string& payload,
                                       std::int64_t received_ns)>;

    /// Connects `connections` sockets to 127.0.0.1:port. Throws
    /// std::runtime_error on failure.
    LoopbackClient(std::uint16_t port, std::size_t connections);
    ~LoopbackClient();
    LoopbackClient(const LoopbackClient&) = delete;
    LoopbackClient& operator=(const LoopbackClient&) = delete;

    /// Queues one framed payload and writes as much as the socket takes.
    void send(std::size_t connection, std::string_view payload);

    /// Blocks until `deadline_ns` (absolute now_ns time) or until at least
    /// one reply was handled, writing queued bytes as sockets allow. Returns
    /// the number of replies handled; throws std::runtime_error when a
    /// connection fails.
    std::size_t poll_until(std::int64_t deadline_ns, const OnReply& on_reply);

    [[nodiscard]] std::size_t connections() const noexcept { return conns_.size(); }

 private:
    struct Conn {
        int fd = -1;
        std::string out;
        std::size_t out_pos = 0;
        swarmavail::serve::FrameDecoder decoder;
    };
    void flush(Conn& conn);

    std::vector<Conn> conns_;
    std::string payload_;
    std::string error_;
};

}  // namespace perfbench
