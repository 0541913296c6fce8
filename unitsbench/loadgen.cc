#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "fixture.h"

namespace unitsbench {

struct LoadGenerator::Conn {
  int fd = -1;
  Proto proto = Proto::kNdjson;
  std::string rbuf;  // collector thread only
  std::mutex mu;
  std::deque<size_t> inflight;  // request indices awaiting replies; mu
};

namespace {

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      Die("load generator: send failed");
    }
    off += static_cast<size_t>(n);
  }
}

/// Extracts one complete reply from `buf` into *body (and *status for
/// HTTP); false when more bytes are needed.
bool NextFrame(Proto proto, std::string* buf, std::string* body,
               int* status) {
  if (proto == Proto::kNdjson) {
    const size_t nl = buf->find('\n');
    if (nl == std::string::npos) {
      return false;
    }
    body->assign(*buf, 0, nl);
    buf->erase(0, nl + 1);
    *status = 200;
    return true;
  }
  const size_t head_end = buf->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return false;
  }
  const std::string key = "Content-Length: ";
  const size_t cl = buf->find(key);
  if (cl == std::string::npos || cl > head_end) {
    Die("load generator: HTTP reply without Content-Length");
  }
  const size_t length =
      std::strtoull(buf->c_str() + cl + key.size(), nullptr, 10);
  const size_t total = head_end + 4 + length;
  if (buf->size() < total) {
    return false;
  }
  // "HTTP/1.1 200 OK"
  *status = std::atoi(buf->c_str() + 9);
  body->assign(*buf, head_end + 4, length);
  buf->erase(0, total);
  return true;
}

int64_t CountOf(const std::string& text, const std::string& needle) {
  int64_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

std::string HttpPredict(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

LoadGenerator::LoadGenerator(int port, const std::vector<Proto>& protos) {
  for (Proto proto : protos) {
    auto conn = std::make_unique<Conn>();
    conn->proto = proto;
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) {
      Die("load generator: socket() failed");
    }
    // Requests leave at once; ACKs keep the kernel's default (delayed)
    // behaviour, as an ordinary client's would.
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int rc = 0;
    do {
      rc = ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      Die("load generator: connect to port " + std::to_string(port) +
          " failed");
    }
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() {
  for (auto& conn : conns_) {
    ::close(conn->fd);
  }
}

StepResult LoadGenerator::RunStep(const std::vector<Request>& requests,
                                  double drain_cap_s) {
  const size_t n = requests.size();
  StepResult result;
  result.replies.resize(n);
  result.send_lag_ms.reserve(n);
  result.outstanding.reserve(n);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(requests[i].due_s));
  }
  std::atomic<int64_t> received{0};
  std::atomic<bool> stop{false};

  std::thread collector([&] {
    std::vector<pollfd> fds(conns_.size());
    std::string body;
    char buf[65536];
    while (!stop.load()) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = {conns_[c]->fd, POLLIN, 0};
      }
      const int ready = ::poll(fds.data(), fds.size(), 5);
      if (ready <= 0) {
        continue;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        Conn& conn = *conns_[c];
        const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
        if (got < 0 && errno == EINTR) {
          continue;
        }
        if (got <= 0) {
          Die("load generator: server closed a connection");
        }
        const Clock::time_point now = Clock::now();
        conn.rbuf.append(buf, static_cast<size_t>(got));
        int status = 0;
        while (NextFrame(conn.proto, &conn.rbuf, &body, &status)) {
          size_t index = 0;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            if (conn.inflight.empty()) {
              Die("load generator: reply without a request");
            }
            index = conn.inflight.front();
            conn.inflight.pop_front();
          }
          Reply& reply = result.replies[index];
          reply.answered = true;
          reply.ok = status == 200 &&
                     body.find("\"ok\":true") != std::string::npos &&
                     body.find("\"ok\":false") == std::string::npos;
          reply.windows = CountOf(body, "\"index\":");
          reply.latency_ms = MsBetween(due[index], now);
          if (requests[index].keep_body) {
            reply.body = body;
          }
          received.fetch_add(1);
        }
      }
    }
  });

  // Wake at the due time, not up to the default 50 us timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  int64_t sent = 0;
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    Conn& conn = *conns_[static_cast<size_t>(requests[i].conn)];
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.inflight.push_back(i);
    }
    SendAll(conn.fd, requests[i].payload);
    sent += 1;
    const Clock::time_point now = Clock::now();
    result.send_lag_ms.push_back(MsBetween(due[i], now));
    result.outstanding.emplace_back(
        std::chrono::duration<double>(now - t0).count(),
        static_cast<double>(sent - received.load()));
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(drain_cap_s));
  while (received.load() < static_cast<int64_t>(n) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  collector.join();

  result.unanswered = static_cast<int64_t>(n) - received.load();
  result.start = t0;
  return result;
}

}  // namespace unitsbench
