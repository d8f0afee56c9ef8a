#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serve/wire.h"

namespace frontbench {
namespace {

constexpr size_t kMaxFrame = size_t{1} << 20;  // nwdd's default cap
// Timer wake-ups can run milliseconds late on virtualized hosts, so lanes
// busy-poll the socket whenever a send is due within this window, and
// Call busy-polls throughout.
constexpr int64_t kSpinWindowNs = 5'000'000;
constexpr int64_t kMaxBlockNs = 50'000'000;

void AppendFrame(std::string* out, const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  out->append(header, 4);
  out->append(payload);
}

}  // namespace

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

bool Conn::Connect(int port, std::string* error) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

bool Conn::Flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t n = send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  out_.clear();
  out_pos_ = 0;
  return true;
}

bool Conn::Fill() {
  if (in_pos_ > 0 && in_pos_ == in_.size()) {
    in_.clear();
    in_pos_ = 0;
  }
  char buf[1 << 16];
  while (true) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
    } else if (n == 0) {
      return false;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    } else if (errno != EINTR) {
      return false;
    }
  }
}

bool Conn::PopFrame(std::string* payload) {
  const size_t avail = in_.size() - in_pos_;
  if (avail < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(in_.data() + in_pos_);
  const size_t len = p[0] | (size_t{p[1]} << 8) | (size_t{p[2]} << 16) |
                     (size_t{p[3]} << 24);
  if (len == 0 || len > kMaxFrame) {
    dead_ = true;
    return false;
  }
  if (avail < 4 + len) return false;
  payload->assign(in_, in_pos_ + 4, len);
  in_pos_ += 4 + len;
  if (in_pos_ > (size_t{1} << 20)) {
    in_.erase(0, in_pos_);
    in_pos_ = 0;
  }
  return true;
}

bool Conn::Absorb(const std::string& frame, Reply* reply) {
  if (frame.rfind("ans ", 0) == 0) {
    Tuple t;
    if (!nwd::serve::ParseTupleText(std::string_view(frame).substr(4), &t)) {
      dead_ = true;
      return false;
    }
    reply->answers.push_back(std::move(t));
    return false;
  }
  reply->head = frame;
  return true;
}

void Conn::Wait(short events, int64_t timeout_ns) {
  pollfd pfd{fd_, events, 0};
  timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
  ppoll(&pfd, 1, &ts, nullptr);
}

bool Conn::Call(const std::string& request, Reply* reply,
                int64_t deadline_ns) {
  reply->head.clear();
  reply->answers.clear();
  if (!alive()) return false;
  AppendFrame(&out_, request);
  std::string frame;
  while (true) {
    if (!Flush() || !Fill()) {
      dead_ = true;
      return false;
    }
    while (PopFrame(&frame)) {
      if (Absorb(frame, reply)) return true;
    }
    if (dead_) return false;
    if (NowNs() > deadline_ns) {
      dead_ = true;
      return false;
    }
  }
}

std::vector<LaneResult> Conn::RunOpenLoop(const std::vector<LaneOp>& ops,
                                          int64_t give_up_ns) {
  std::vector<LaneResult> results(ops.size());
  if (!alive()) return results;
  size_t next_send = 0;
  size_t next_recv = 0;
  Reply reply;
  std::string frame;
  while (next_recv < ops.size()) {
    int64_t now = NowNs();
    if (now > give_up_ns) {
      dead_ = true;  // replies still in flight would misalign later calls
      break;
    }
    while (next_send < ops.size() && ops[next_send].due_ns <= now) {
      AppendFrame(&out_, ops[next_send].request);
      results[next_send].sent_ns = now;
      ++next_send;
    }
    if (!Flush() || !Fill()) {
      dead_ = true;
      break;
    }
    const int64_t read_at = NowNs();
    while (next_recv < next_send && PopFrame(&frame)) {
      if (!Absorb(frame, &reply)) continue;
      LaneResult& r = results[next_recv];
      r.recv_ns = read_at;
      r.ok = reply.ok();
      if (ops[next_recv].keep_reply) r.reply = reply.head;
      reply.answers.clear();
      ++next_recv;
    }
    if (dead_) break;
    if (next_recv == ops.size()) break;
    // Spin while a send is due soon; block only for longer gaps, waking
    // early enough that the next send is not late.
    const int64_t until_due = next_send < ops.size()
                                  ? ops[next_send].due_ns - NowNs()
                                  : kSpinWindowNs + kMaxBlockNs;
    if (until_due > kSpinWindowNs) {
      Wait(static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
           std::min(until_due - kSpinWindowNs, kMaxBlockNs));
    }
  }
  return results;
}

}  // namespace frontbench
