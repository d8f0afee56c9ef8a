// The benchmark's side of nwdd's frame protocol (serve/wire.h) over
// loopback TCP: a blocking call for pages and control verbs, and an
// open-loop lane that sends each request at its scheduled time whether
// or not earlier replies have arrived, and times every reply from that
// scheduled time.

#ifndef FRONTBENCH_WIRE_CLIENT_H_
#define FRONTBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace frontbench {

// One complete reply: the final frame (ok/end/err) and any `ans` frames
// before it.
struct Reply {
  std::string head;
  std::vector<Tuple> answers;
  bool ok() const {
    return head.rfind("ok", 0) == 0 || head.rfind("end", 0) == 0;
  }
};

// One request of an open-loop lane.
struct LaneOp {
  int64_t due_ns = 0;  // absolute steady-clock time
  std::string request;
  bool keep_reply = false;
};

struct LaneResult {
  int64_t sent_ns = 0;  // when the request was handed to the socket
  int64_t recv_ns = 0;  // when its final frame was read (0 = never)
  bool ok = false;      // an ok/end reply (not err, not lost)
  std::string reply;    // final frame, when keep_reply
};

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port, std::string* error);
  bool alive() const { return fd_ >= 0 && !dead_; }

  // Sends one request and reads its whole reply, busy-polling the socket.
  // False on a transport
  // error or when `deadline_ns` passes first (the connection is then
  // unusable: replies could no longer be matched to requests).
  bool Call(const std::string& request, Reply* reply, int64_t deadline_ns);

  // Open loop: sends ops[i].request at ops[i].due_ns, reads replies in
  // order. Replies still missing at `give_up_ns` are lost (recv_ns = 0).
  // Returns the results, index-aligned with `ops`.
  std::vector<LaneResult> RunOpenLoop(const std::vector<LaneOp>& ops,
                                      int64_t give_up_ns);

 private:
  // Moves buffered outbound bytes into the socket; false on error.
  bool Flush();
  // Reads what the socket has; false on EOF or error.
  bool Fill();
  // Pops one complete frame from the inbound buffer, if there is one.
  bool PopFrame(std::string* payload);
  // Feeds one frame into *reply; true when it was the final frame.
  bool Absorb(const std::string& frame, Reply* reply);
  void Wait(short events, int64_t timeout_ns);

  int fd_ = -1;
  bool dead_ = false;
  std::string out_;
  size_t out_pos_ = 0;
  std::string in_;
  size_t in_pos_ = 0;
};

// Lowers this thread's timer slack so short scheduled waits wake on time.
void TightenTimerSlack();

}  // namespace frontbench

#endif  // FRONTBENCH_WIRE_CLIENT_H_
