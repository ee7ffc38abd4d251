#include "loopback.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace perfbench {
namespace {

[[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ReplyInfo classify_reply(std::string_view payload) {
    ReplyInfo info;
    constexpr std::string_view kIdPrefix = "{\"id\":";
    if (payload.substr(0, kIdPrefix.size()) == kIdPrefix) {
        std::uint64_t id = 0;
        std::size_t i = kIdPrefix.size();
        while (i < payload.size() && payload[i] >= '0' && payload[i] <= '9') {
            id = id * 10 + static_cast<std::uint64_t>(payload[i] - '0');
            ++i;
        }
        info.has_id = i > kIdPrefix.size();
        info.id = id;
        return info;
    }
    info.refused = payload.find("\"code\":\"overloaded\"") != std::string_view::npos;
    return info;
}

LoopbackClient::LoopbackClient(std::uint16_t port, std::size_t connections)
    : conns_(connections) {
    for (Conn& conn : conns_) {
        conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (conn.fd < 0) {
            fail("socket");
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            fail("connect");
        }
        const int one = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const int flags = ::fcntl(conn.fd, F_GETFL, 0);
        if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
            fail("fcntl");
        }
    }
}

LoopbackClient::~LoopbackClient() {
    for (Conn& conn : conns_) {
        if (conn.fd >= 0) {
            ::close(conn.fd);
        }
    }
}

void LoopbackClient::send(std::size_t connection, std::string_view payload) {
    Conn& conn = conns_.at(connection);
    conn.out += std::to_string(payload.size() + 1);
    conn.out += '\n';
    conn.out += payload;
    conn.out += '\n';
    flush(conn);
}

void LoopbackClient::flush(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        } else {
            fail("send");
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}

std::size_t LoopbackClient::poll_until(std::int64_t deadline_ns, const OnReply& on_reply) {
    std::vector<pollfd> fds(conns_.size());
    std::size_t handled = 0;
    char buffer[64 * 1024];
    while (true) {
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            fds[i].fd = conns_[i].fd;
            fds[i].events = POLLIN;
            if (conns_[i].out_pos < conns_[i].out.size()) {
                fds[i].events |= POLLOUT;
            }
            fds[i].revents = 0;
        }
        const std::int64_t wait = deadline_ns - now_ns();
        timespec timeout{};
        if (wait > 0) {
            timeout.tv_sec = static_cast<time_t>(wait / 1000000000);
            timeout.tv_nsec = static_cast<long>(wait % 1000000000);
        }
        const int rc = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            fail("ppoll");
        }
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            Conn& conn = conns_[i];
            if ((fds[i].revents & POLLOUT) != 0) {
                flush(conn);
            }
            if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
                continue;
            }
            while (true) {
                const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
                if (n > 0) {
                    conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
                    continue;
                }
                if (n == 0) {
                    throw std::runtime_error("server closed a connection");
                }
                if (errno == EINTR) {
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    break;
                }
                fail("recv");
            }
            const std::int64_t received = now_ns();
            while (true) {
                const auto status = conn.decoder.next(payload_, error_);
                if (status == swarmavail::serve::FrameDecoder::Status::kNeedMore) {
                    break;
                }
                if (status == swarmavail::serve::FrameDecoder::Status::kError) {
                    throw std::runtime_error("bad reply frame: " + error_);
                }
                on_reply(i, payload_, received);
                ++handled;
            }
        }
        if (handled > 0 || now_ns() >= deadline_ns) {
            return handled;
        }
    }
}

}  // namespace perfbench
