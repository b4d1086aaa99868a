// The load generator: one process, one thread, kConns TCP connections,
// speaking the `user k` line protocol to a server on 127.0.0.1 in a
// closed loop: each connection keeps kDepth requests in flight, and a
// reply is answered at once with the next request of the seed's user
// sequence. It writes one record per request for run.py (latency) and
// the oracle (correctness).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

enum Status { kOk = 0, kBusy = 1, kError = 2, kTimeout = 3, kWrongUser = 4 };

struct Record {
  int conn = 0;
  int user = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  int status = kTimeout;
  std::string items;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<size_t> fifo;  // records awaiting a reply, in send order
};

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void ParseReply(const std::string& line, Record* r) {
  if (line == "!busy") {
    r->status = kBusy;
    return;
  }
  const std::string prefix = "ok user=";
  if (line.rfind(prefix, 0) != 0) {
    r->status = kError;
    return;
  }
  const int user = std::atoi(line.c_str() + prefix.size());
  const size_t items = line.find(" items=");
  if (user != r->user || items == std::string::npos) {
    r->status = kWrongUser;
    return;
  }
  r->status = kOk;
  r->items = line.substr(items + 7);
}

bool FlushOut(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

}  // namespace

int RunLoadgen(const Args& args) {
  const int port = static_cast<int>(args.Int("port"));
  const double warmup = args.Num("warmup");
  const double seconds = args.Num("seconds");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const int num_users = static_cast<int>(args.Int("users"));
  const int k = static_cast<int>(args.Int("k"));
  const std::string out_path = args.Str("out");
  if (num_users < 1) {
    std::fprintf(stderr, "loadgen: need users > 0\n");
    return 2;
  }

  std::vector<Conn> conns(kConns);
  for (Conn& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      std::fprintf(stderr, "loadgen: cannot connect to port %d\n", port);
      return 1;
    }
  }

  std::vector<Record> records;
  records.reserve(1 << 18);
  const int64_t start = NowNs() + 20000000;  // 20 ms to settle
  const int64_t end = start + static_cast<int64_t>((warmup + seconds) * 1e9);
  const int64_t drain_deadline = end + 5000000000LL;
  uint64_t next = 0;
  SleepUntilNs(start);

  auto issue = [&](int ci, int64_t now) {
    Record r;
    r.conn = ci;
    r.user = ScheduleUser(seed, next++, num_users);
    r.sent_ns = now;
    conns[ci].out += std::to_string(r.user) + " " + std::to_string(k) + "\n";
    records.push_back(std::move(r));
    conns[ci].fifo.push_back(records.size() - 1);
  };
  for (int ci = 0; ci < kConns; ++ci) {
    for (int d = 0; d < kDepth; ++d) issue(ci, NowNs());
  }

  std::vector<pollfd> fds(kConns);
  char buf[1 << 16];
  bool broken = false;
  for (;;) {
    const int64_t now = NowNs();
    for (Conn& c : conns) {
      if (!FlushOut(&c)) broken = true;
    }
    bool idle = true;
    for (const Conn& c : conns) idle = idle && c.fifo.empty();
    if (broken || (now >= end && idle) || now >= drain_deadline) break;

    const int64_t wait_ns = std::max<int64_t>(
        now < end ? end - now : drain_deadline - now, 0);
    for (int ci = 0; ci < kConns; ++ci) {
      fds[ci].fd = conns[ci].fd;
      fds[ci].events = POLLIN | (conns[ci].out.empty() ? 0 : POLLOUT);
      fds[ci].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000LL),
                static_cast<long>(wait_ns % 1000000000LL)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (int ci = 0; ci < kConns; ++ci) {
      if ((fds[ci].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[ci];
      const ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        broken = true;
        continue;
      }
      if (n < 0) continue;
      const int64_t done = NowNs();
      c.in.append(buf, static_cast<size_t>(n));
      size_t pos = 0;
      for (;;) {
        const size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        const std::string line = c.in.substr(pos, nl - pos);
        pos = nl + 1;
        if (c.fifo.empty()) {
          broken = true;  // a reply nobody asked for
          break;
        }
        Record& r = records[c.fifo.front()];
        c.fifo.pop_front();
        r.done_ns = done;
        ParseReply(line, &r);
        if (done < end) issue(ci, done);
      }
      c.in.erase(0, pos);
    }
  }
  for (Conn& c : conns) close(c.fd);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "# %lld %lld %lld %d\n", static_cast<long long>(start),
               static_cast<long long>(start + static_cast<int64_t>(warmup * 1e9)),
               static_cast<long long>(end), k);
  for (const Record& r : records) {
    std::fprintf(f, "%d %d %lld %lld %d %s\n", r.conn, r.user,
                 static_cast<long long>(r.sent_ns), static_cast<long long>(r.done_ns),
                 r.status,
                 r.items.empty() ? "-" : r.items.c_str());
  }
  std::fclose(f);
  if (broken) {
    std::fprintf(stderr, "loadgen: a connection failed\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
